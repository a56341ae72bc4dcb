package experiments

import (
	"strings"
	"testing"

	"lynx/internal/check"
)

// TestScorecardDocument validates the embedded claims document itself:
// parseable, no duplicates, every claim bounded.
func TestScorecardDocument(t *testing.T) {
	sc, err := check.ParseScorecard(scorecardJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sc.Claims); got != 24 {
		t.Fatalf("scorecard.json has %d claims, want 24 (update this test when adding claims)", got)
	}
	for _, c := range sc.Claims {
		if c.Paper == "" || c.Desc == "" {
			t.Errorf("claim %s: missing paper citation or description", c.ID)
		}
	}
}

// TestScorecard is the paper-fidelity gate: every shape claim of the
// reproduced evaluation must hold at the fast scale, under runtime
// invariants. A change that bends a reproduced result past its tolerance
// band fails here rather than waiting for a human to re-read the tables.
func TestScorecard(t *testing.T) {
	agg := check.NewAggregate()
	cfg := Config{Seed: 1, Scale: 0.25, Workers: AutoWorkers, Invariants: agg}.newRun()
	metrics := scorecardMetrics(cfg)
	sc := loadScorecard()
	results := sc.Evaluate(metrics)
	for _, res := range results {
		if !res.Pass {
			t.Errorf("%s", res)
		}
	}
	if rep := agg.Report(); !rep.OK() {
		t.Errorf("invariants violated during scorecard runs:\n%s", rep)
	}

	// The gate must actually gate: perturb one measured metric per claim and
	// check the claim notices. A claim that passes any value is dead weight.
	t.Run("perturbed", func(t *testing.T) {
		for _, c := range sc.Claims {
			bad := make(map[string]float64, len(metrics))
			for k, v := range metrics {
				bad[k] = v
			}
			switch {
			case c.Min != nil:
				bad[c.Metric] = *c.Min * 0.5
			case c.Max != nil:
				bad[c.Metric] = *c.Max * 2
			}
			fails := check.Failures(sc.Evaluate(bad))
			found := false
			for _, f := range fails {
				if f.Claim.ID == c.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("claim %s did not fail on a perturbed metric", c.ID)
			}
		}
		// A metric the harness stops producing must fail, not silently pass.
		missing := map[string]float64{}
		if fails := check.Failures(sc.Evaluate(missing)); len(fails) != len(sc.Claims) {
			t.Errorf("empty metrics: %d failures, want %d", len(fails), len(sc.Claims))
		}
	})

	// The report form mirrors the evaluation and sets Failed on a miss.
	t.Run("report", func(t *testing.T) {
		r := scorecard(cfg)
		if r.Failed {
			t.Fatalf("scorecard report marked Failed:\n%s", r)
		}
		if len(r.Rows) != len(sc.Claims) {
			t.Fatalf("report has %d rows, want %d", len(r.Rows), len(sc.Claims))
		}
		if !strings.Contains(r.String(), "PASS") {
			t.Fatal("report does not render claim status")
		}
	})
}
