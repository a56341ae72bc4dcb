package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lynx/internal/profile"
	"lynx/internal/trace"
)

// TestAttributionNamesDispatcher is the experiment's acceptance criterion:
// at the BlueField saturation point (Fig. 9 / §6.2 of the paper), the
// bottleneck ranking must put the dispatcher — the serialized SNIC stack
// section — first, ahead of the GPU and the wire.
func TestAttributionNamesDispatcher(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.25}
	if rank := (attributionPoint{}).run(cfg).rank; rank != 1 {
		t.Fatalf("dispatcher ranked #%v, want #1", rank)
	}
	rep := runReport(t, cfg, "attribution")
	for _, row := range []string{"network", "snic", "transfer", "queueing", "execution", "end-to-end"} {
		if _, ok := rep.Cell(row, "wait-p99"); !ok {
			t.Errorf("report missing %q wait-p99 cell", row)
		}
	}
	var ranked bool
	for _, n := range rep.Notes {
		if strings.HasPrefix(n, "bottleneck #1 dispatcher:") {
			ranked = true
		}
	}
	if !ranked {
		t.Fatalf("no 'bottleneck #1 dispatcher' note in:\n%s", rep)
	}
}

// TestAttributionProfileJSON: the profile.json the attribution experiment
// writes into its -obs directory is schema-complete and byte-identical
// across same-seed runs.
func TestAttributionProfileJSON(t *testing.T) {
	write := func() []byte {
		dir := t.TempDir()
		runReport(t, Config{Seed: 1, Scale: 0.1, Obs: dir}, "attribution")
		raw, err := os.ReadFile(filepath.Join(dir, profile.ProfileFile))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := write(), write()
	if !bytes.Equal(a, b) {
		t.Fatal("profile JSON differs across identical runs")
	}
	var rep profile.Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatalf("profile JSON invalid: %v", err)
	}
	if rep.SpansClosed == 0 || len(rep.Phases) != int(trace.NumPhases) || len(rep.Bottlenecks) == 0 {
		t.Fatalf("profile JSON incomplete: closed=%d phases=%d bottlenecks=%d",
			rep.SpansClosed, len(rep.Phases), len(rep.Bottlenecks))
	}
	if len(rep.Top) == 0 {
		t.Fatal("flight recorder empty in profile JSON")
	}
	for _, sr := range rep.Top {
		var sum int64
		for _, ph := range sr.Phases {
			if ph.WaitNs < 0 || ph.WaitNs+ph.ServiceNs != ph.TotalNs {
				t.Fatalf("span %d phase %s: wait %d + service %d != total %d",
					sr.ID, ph.Phase, ph.WaitNs, ph.ServiceNs, ph.TotalNs)
			}
			sum += ph.TotalNs
		}
		if len(sr.Phases) > 0 && sum != sr.LatencyNs {
			t.Fatalf("span %d phases sum %d != latency %d", sr.ID, sum, sr.LatencyNs)
		}
	}
}

// TestTopCollectorTable: deterministic ordering (latency desc, ID asc),
// truncation to k, and the wait/service cell rendering.
func TestTopCollectorTable(t *testing.T) {
	mkEntry := func(id uint64, lat time.Duration) profile.Entry {
		return profile.Entry{Span: trace.Span{ID: id, Status: trace.SpanDone, Queue: 0}, Latency: lat}
	}
	top := NewTopCollector(3)
	top.Add([]profile.Entry{mkEntry(4, 10*time.Microsecond), mkEntry(2, 30*time.Microsecond)})
	top.Add([]profile.Entry{mkEntry(9, 30*time.Microsecond), mkEntry(1, 50*time.Microsecond), mkEntry(7, 5*time.Microsecond)})

	rep := top.Table()
	if len(rep.Rows) != 3 {
		t.Fatalf("table has %d rows, want 3", len(rep.Rows))
	}
	wantOrder := []string{"span 1", "span 2", "span 9"} // 50µs, then the 30µs tie by ID
	for i, want := range wantOrder {
		if rep.Rows[i].Name != want {
			t.Errorf("row %d = %q, want %q", i, rep.Rows[i].Name, want)
		}
	}
	if cell, ok := rep.Cell("span 1", "latency"); !ok || cell != "50µs" {
		t.Errorf("latency cell = %q, %v", cell, ok)
	}
	// Hand-built spans carry no trajectory; their phase cells render as a
	// zero split rather than garbage.
	if cell, ok := rep.Cell("span 1", "network w/s"); !ok || cell != "0s/0s" {
		t.Errorf("zero-trajectory phase cell = %q, %v", cell, ok)
	}

	empty := NewTopCollector(2).Table()
	if len(empty.Rows) != 0 || len(empty.Notes) == 0 {
		t.Fatalf("empty collector: rows=%d notes=%d, want a no-spans note", len(empty.Rows), len(empty.Notes))
	}
}

// TestTopCollectorThroughExperiment: arming cfg.Top on a real experiment
// yields a full table of completed spans with rendered wait/service splits.
func TestTopCollectorThroughExperiment(t *testing.T) {
	top := NewTopCollector(5)
	runReport(t, Config{Seed: 1, Scale: 0.1, Top: top}, "breakdown")
	rep := top.Table()
	if len(rep.Rows) != 5 {
		t.Fatalf("table has %d rows, want 5", len(rep.Rows))
	}
	prev := time.Duration(-1)
	for _, row := range rep.Rows {
		status, _ := rep.Cell(row.Name, "status")
		if status != "done" {
			t.Errorf("%s status = %q", row.Name, status)
		}
		latCell, _ := rep.Cell(row.Name, "latency")
		lat, err := time.ParseDuration(latCell)
		if err != nil {
			t.Fatalf("%s latency %q: %v", row.Name, latCell, err)
		}
		if prev >= 0 && lat > prev {
			t.Fatalf("rows not sorted by latency: %v after %v", lat, prev)
		}
		prev = lat
		ws, _ := rep.Cell(row.Name, "execution w/s")
		if !strings.Contains(ws, "/") || ws == "-" {
			t.Errorf("%s execution w/s = %q, want a wait/service split", row.Name, ws)
		}
	}
}
