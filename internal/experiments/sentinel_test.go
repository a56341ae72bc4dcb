package experiments

import (
	"strings"
	"testing"
)

func TestSentinelExperimentPredictsBothKnees(t *testing.T) {
	rep := runReport(t, Config{Seed: 1, Scale: 0.1, Workers: 1}, "sentinel")
	if rep.Failed {
		t.Fatalf("a knee estimate came back invalid:\n%s", rep)
	}
	s := rep.String()
	// Both rows name the dispatcher as the pivot: the probe deployments are
	// dispatcher-bound, same as the measured knees.
	if strings.Count(s, "dispatcher") != 2 {
		t.Errorf("pivot column wrong:\n%s", s)
	}
	if !strings.Contains(s, "model: knee") {
		t.Errorf("model note missing:\n%s", s)
	}
}

func TestSentinelKneeRatiosWithinClaimBands(t *testing.T) {
	// The claim bands are calibrated for -scale >= 0.25 (the CI gate): below
	// that the closed-loop measured side is depressed by the ramp-up
	// transient and the ratio drifts high.
	cfg := Config{Seed: 1, Scale: 0.25, Workers: 1}
	outs := make([]kneeOutcome, len(sentinelKnees))
	cfg.sweep(len(outs), func(i int) { outs[i] = sentinelKnees[i].knee(cfg) })
	for i, k := range sentinelKnees {
		name, r := k.row, outs[i].ratio()
		if r < 0.7 || r > 1.35 {
			t.Errorf("%s predicted/measured = %.2f, want within [0.7, 1.35] (est %+v, measured %.0f)",
				name, r, outs[i].est, outs[i].measured)
		}
	}
}
