package experiments

import (
	"bytes"
	"strings"
	"testing"

	"lynx/internal/sentinel"
)

// Fast-mode config for sentinel measurements: short windows, sequential.
func sentinelCfg() Config {
	return Config{Seed: 1, Scale: 0.1, Workers: 1}
}

func TestSentinelExperimentPredictsBothKnees(t *testing.T) {
	rep, err := Run("sentinel", sentinelCfg())
	if err != nil {
		t.Fatal(err)
	}
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
	outs := make([]kneeOutcome, 2)
	cfg.sweep(2, func(i int) {
		outs[i] = []func(Config) kneeOutcome{fig6Knee, fig9Knee}[i](cfg)
	})
	for i, name := range []string{"fig6", "fig9"} {
		r := outs[i].ratio()
		if r < 0.7 || r > 1.35 {
			t.Errorf("%s predicted/measured = %.2f, want within [0.7, 1.35] (est %+v, measured %.0f)",
				name, r, outs[i].est, outs[i].measured)
		}
	}
}

func TestBuildSentinelArtifactShapeAndDeterminism(t *testing.T) {
	cfg := sentinelCfg()
	a := BuildSentinelArtifact(cfg)
	if a.Version != sentinel.Version || a.Report == nil {
		t.Fatalf("artifact incomplete: %+v", a)
	}
	if len(a.Scorecard) < 21 {
		t.Errorf("scorecard has %d claims, want >= 21", len(a.Scorecard))
	}
	if len(a.Knees) != 2 || a.Knees[0].Name != "fig6" || a.Knees[1].Name != "fig9" {
		t.Fatalf("knees = %+v", a.Knees)
	}
	if a.Fingerprint.Config != "seed=1 scale=0.1 batch=unit" {
		t.Errorf("config fingerprint = %q", a.Fingerprint.Config)
	}
	if a.Fingerprint.Scorecard == "" {
		t.Error("scorecard fingerprint empty")
	}

	// Byte-determinism across worker counts: the artifact is the contract the
	// CI baseline job diffs, so -parallel must not leak into it.
	par := cfg
	par.Workers = 4
	b := BuildSentinelArtifact(par)
	var ba, bb bytes.Buffer
	if err := a.WriteJSON(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("artifact bytes depend on the worker count")
	}

	// A same-config rebuild diffs clean against itself — the -compare gate.
	d := sentinel.Diff(a, b, sentinel.Options{})
	if !d.Clean() {
		t.Fatalf("same-config artifacts diff dirty:\n%s", d)
	}
}
