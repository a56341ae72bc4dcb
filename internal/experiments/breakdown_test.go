package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lynx/internal/profile"
)

// TestBreakdownPhasesSumToEndToEnd is the experiment's acceptance criterion:
// the per-stage latency decomposition must account for the whole end-to-end
// latency (within the report's 100ns cell rounding, far inside 5%).
func TestBreakdownPhasesSumToEndToEnd(t *testing.T) {
	rep := runReport(t, Config{Seed: 1, Scale: 0.25}, "breakdown")
	cell := func(row string) time.Duration {
		s, ok := rep.Cell(row, "mean")
		if !ok {
			t.Fatalf("report has no %q mean cell", row)
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("cell %q = %q: %v", row, s, err)
		}
		return d
	}
	var sum time.Duration
	for _, row := range []string{"network", "snic", "transfer", "queueing", "execution"} {
		ph := cell(row)
		if ph <= 0 {
			t.Errorf("phase %s mean = %v, want > 0", row, ph)
		}
		sum += ph
	}
	e2e := cell("end-to-end")
	if e2e <= 0 {
		t.Fatalf("end-to-end mean = %v", e2e)
	}
	if gap := math.Abs(float64(sum-e2e)) / float64(e2e); gap > 0.05 {
		t.Fatalf("phase sum %v vs end-to-end %v: gap %.1f%% exceeds 5%%", sum, e2e, 100*gap)
	}
}

// TestBreakdownTraceJSON validates the exported timeline (trace.json in the
// -obs directory): schema-valid Chrome trace events, and byte-identical
// across runs with the same seed.
func TestBreakdownTraceJSON(t *testing.T) {
	write := func() []byte {
		dir := t.TempDir()
		runReport(t, Config{Seed: 1, Scale: 0.1, Obs: dir}, "breakdown")
		b, err := os.ReadFile(filepath.Join(dir, profile.TraceFile))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := write(), write()
	if !bytes.Equal(a, b) {
		t.Fatal("trace JSON differs across identical runs (non-deterministic export)")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	counters := 0
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %v missing %q", ev, field)
			}
		}
		if ev["ph"] == "C" {
			counters++
		}
	}
	if counters == 0 {
		t.Fatal("no sampler counter events in the trace (monitor not wired)")
	}
}

// TestBreakdownDisabledIsFree verifies the zero-overhead contract at the
// system level: the same deployment with the observability plane disabled
// produces the exact same workload result (virtual-time behaviour unchanged).
func TestBreakdownDisabledIsFree(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.1}
	on := BreakdownRun(cfg, true)
	off := BreakdownRun(cfg, false)
	if on.Received != off.Received || on.Sent != off.Sent || on.Lost != off.Lost {
		t.Fatalf("tracing changed the run: traced %v untraced %v", on, off)
	}
	if on.Hist.Mean() != off.Hist.Mean() || on.Hist.P99() != off.Hist.P99() {
		t.Fatalf("tracing changed latency: traced mean=%v p99=%v, untraced mean=%v p99=%v",
			on.Hist.Mean(), on.Hist.P99(), off.Hist.Mean(), off.Hist.P99())
	}
}
