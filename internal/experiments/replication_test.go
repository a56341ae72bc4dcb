package experiments

import (
	"testing"

	"lynx/internal/check"
	"lynx/internal/cluster"
)

// TestReplicationPointsCheckTheirClients: a replication point is measured
// through Rack.Measure, so with invariants armed its client ledger (the
// workload's request-conservation finisher) joins the rack's end-of-run
// checks — one finisher more than the bare rack registers — and the run,
// replica kill included, stays violation-free.
func TestReplicationPointsCheckTheirClients(t *testing.T) {
	for _, pt := range []replicationPoint{{1, 1, false}, {3, 3, false}, {3, 3, true}} {
		cfg := Config{Seed: 7, Scale: 0.1, Invariants: check.NewAggregate()}
		pt.run(cfg)
		bare := check.New()
		rack, err := cluster.Build(cluster.Config{Nodes: pt.nodes, Replicas: pt.rf, Check: bare})
		if err != nil {
			t.Fatal(err)
		}
		rack.Close()
		got, want := cfg.Invariants.Report(), bare.Finalize().Finishers+1
		if !got.OK() {
			t.Errorf("%+v: %s", pt, got)
		}
		if got.Finishers != want {
			t.Errorf("%+v: %d finishers, want %d (the rack's plus the client ledger)", pt, got.Finishers, want)
		}
	}
}
