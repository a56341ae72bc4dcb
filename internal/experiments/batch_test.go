package experiments

import (
	"testing"

	"lynx/internal/check"
	"lynx/internal/model"
)

// The unit batch configuration must be indistinguishable from no batch
// configuration at all, at the experiment level: same workload, same seed,
// same virtual-time throughput to the last bit.
func TestBatchUnitEquivalentToUnbatched(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.1, Workers: 1}
	unit := batchCell{model.BatchConfig{Doorbell: 1, CQDrain: 1, Quantum: 1}, 32}.run(cfg)
	zero := batchCell{model.BatchConfig{}, 32}.run(cfg)
	if unit != zero {
		t.Fatalf("unit config throughput %v != zero-value config %v (must be byte-identical)", unit, zero)
	}
}

// The full -exp batch sweep must run clean under armed runtime invariants:
// batching must not break request conservation, ring bounds, or orphan
// detection at any swept configuration.
func TestBatchExperimentInvariantsClean(t *testing.T) {
	agg := check.NewAggregate()
	cfg := Config{Seed: 1, Scale: 0.1, Workers: AutoWorkers, Invariants: agg}.newRun()
	r := batchExp(cfg)
	if r == nil || len(r.Rows) != len(batchConfigs) {
		t.Fatalf("batch report malformed: %+v", r)
	}
	if rep := agg.Report(); !rep.OK() {
		t.Fatalf("invariant violations during batched runs:\n%s", rep)
	}
	if agg.Runs() == 0 {
		t.Fatal("invariant checker saw no simulations")
	}
	// Batching must help where it matters: the default row's high-mq cell
	// should beat the unit row's (the scorecard pins the exact band; this
	// guards the ordering at the test scale).
	var gain float64
	for _, x := range scorecardExprs {
		if x.metric == "batch.knee_gain" {
			gain = x.eval(cfg) // from the sweep's points, through the memo
		}
	}
	if gain <= 1.0 {
		t.Fatalf("default batching did not improve high-mq throughput: gain %.3f", gain)
	}
}

// Deterministic: two identical batched sweeps give identical reports.
func TestBatchExperimentDeterministic(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.1, Workers: AutoWorkers}
	a, b := batchExp(cfg).CSV(), batchExp(cfg).CSV()
	if a != b {
		t.Fatalf("batch experiment nondeterministic:\n%s\nvs\n%s", a, b)
	}
}
