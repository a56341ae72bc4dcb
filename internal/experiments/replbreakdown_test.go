package experiments

import (
	"testing"

	"lynx/internal/check"
	"lynx/internal/trace"
)

// TestReplBreakdownTelescope: the RF=3 decomposition's quorum-wait phase is
// real (nonzero on a healthy rack) and telescopes — phase means sum to the
// end-to-end mean within the scorecard band — with invariants green.
func TestReplBreakdownTelescope(t *testing.T) {
	inv := check.NewAggregate()
	out := replBreakdownRun(Config{Seed: 1, Scale: 0.25, Invariants: inv})
	spans := out.node0.Spans()
	if spans.Closed() == 0 {
		t.Fatal("no closed spans")
	}
	if err := telescopeError(spans); err > 0.05 {
		t.Errorf("telescope error %.4f exceeds 0.05", err)
	}
	if spans.PhaseHist(trace.PhaseReplication).Mean() <= 0 {
		t.Error("replication phase mean is zero on an RF=3 rack")
	}
	if len(out.peers) != 2 {
		t.Fatalf("expected 2 peer stats, got %d", len(out.peers))
	}
	if rep := inv.Report(); !rep.OK() {
		t.Errorf("%s", rep)
	}
	// The profile report carries the straggler section, gating-count order.
	if got := len(out.prof.Replication); got != 2 {
		t.Fatalf("profile replication section has %d peers", got)
	}
	if out.prof.Replication[0].GatedQuorums < out.prof.Replication[1].GatedQuorums {
		t.Error("straggler ranking not sorted by gated quorums")
	}
	// The bottleneck taxonomy learned the replication resource.
	if out.prof.Rank("replication") == 0 {
		t.Error("replication resource missing from the bottleneck ranking")
	}
}

// TestReplBreakdownDeterminism: same seed, same report bytes.
func TestReplBreakdownDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Scale: 0.25}
	r1 := runReport(t, cfg, "replbreakdown")
	r2 := runReport(t, cfg, "replbreakdown")
	if r1.CSV() != r2.CSV() {
		t.Errorf("replbreakdown reports diverged:\n%s\nvs\n%s", r1.CSV(), r2.CSV())
	}
}
