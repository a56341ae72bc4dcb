// Scorecard: the paper's evaluation shapes (orderings, ratio bands,
// latency floors) as machine-readable claims. internal/experiments embeds
// scorecard.json, computes the named metrics from fast measurement runs,
// and Evaluate turns (claims, metrics) into pass/fail results that
// TestScorecard and `lynxbench -exp scorecard` gate on.
package check

import (
	"encoding/json"
	"fmt"
)

// Claim is one shape assertion about a named metric. Bounds are pointers so
// one-sided claims ("at least 5x") leave the other side open.
type Claim struct {
	// ID names the claim, dotted by figure: "fig6.bf_240mq_short".
	ID string `json:"id"`
	// Metric is the key the experiment harness must produce.
	Metric string `json:"metric"`
	// Min/Max bound the metric's tolerated band (inclusive); nil = open.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Paper cites the number or shape the paper reports, for the table.
	Paper string `json:"paper,omitempty"`
	// Desc states the claim in prose.
	Desc string `json:"desc,omitempty"`
}

// Band formats the tolerated band.
func (c Claim) Band() string {
	switch {
	case c.Min != nil && c.Max != nil:
		return fmt.Sprintf("[%g, %g]", *c.Min, *c.Max)
	case c.Min != nil:
		return fmt.Sprintf(">= %g", *c.Min)
	case c.Max != nil:
		return fmt.Sprintf("<= %g", *c.Max)
	}
	return "(unbounded)"
}

// Scorecard is a set of claims.
type Scorecard struct {
	Claims []Claim `json:"claims"`
}

// ParseScorecard decodes a scorecard JSON document and validates that every
// claim has an ID, a metric, and at least one bound.
func ParseScorecard(data []byte) (Scorecard, error) {
	var sc Scorecard
	if err := json.Unmarshal(data, &sc); err != nil {
		return Scorecard{}, fmt.Errorf("scorecard: %w", err)
	}
	if len(sc.Claims) == 0 {
		return Scorecard{}, fmt.Errorf("scorecard: no claims")
	}
	seen := map[string]bool{}
	for _, c := range sc.Claims {
		if c.ID == "" || c.Metric == "" {
			return Scorecard{}, fmt.Errorf("scorecard: claim %+v missing id or metric", c)
		}
		if c.Min == nil && c.Max == nil {
			return Scorecard{}, fmt.Errorf("scorecard: claim %s has no bounds", c.ID)
		}
		if seen[c.ID] {
			return Scorecard{}, fmt.Errorf("scorecard: duplicate claim id %s", c.ID)
		}
		seen[c.ID] = true
	}
	return sc, nil
}

// ClaimResult is one evaluated claim.
type ClaimResult struct {
	Claim Claim
	// Value is the measured metric (meaningless when Missing).
	Value float64
	// Missing reports that the harness produced no such metric — always a
	// failure, so scorecard.json and the measurement code cannot drift
	// silently.
	Missing bool
	Pass    bool
}

func (r ClaimResult) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	if r.Missing {
		return fmt.Sprintf("%s %s: metric %q not produced", status, r.Claim.ID, r.Claim.Metric)
	}
	return fmt.Sprintf("%s %s: %s = %.3g, want %s", status, r.Claim.ID, r.Claim.Metric, r.Value, r.Claim.Band())
}

// Evaluate checks every claim against the measured metrics, in claim order.
func (sc Scorecard) Evaluate(metrics map[string]float64) []ClaimResult {
	out := make([]ClaimResult, 0, len(sc.Claims))
	for _, c := range sc.Claims {
		v, ok := metrics[c.Metric]
		res := ClaimResult{Claim: c, Value: v, Missing: !ok, Pass: ok}
		if ok {
			if c.Min != nil && v < *c.Min {
				res.Pass = false
			}
			if c.Max != nil && v > *c.Max {
				res.Pass = false
			}
		}
		out = append(out, res)
	}
	return out
}

// Failures filters the failing results.
func Failures(results []ClaimResult) []ClaimResult {
	var out []ClaimResult
	for _, r := range results {
		if !r.Pass {
			out = append(out, r)
		}
	}
	return out
}
