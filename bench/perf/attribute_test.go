package main

import (
	"os"
	"testing"
)

// The committed sample covers each attribution rule; its layer totals are
// worked out by hand below.
func TestAttributeSample(t *testing.T) {
	out, err := os.ReadFile("testdata/sample.traces")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(string(out), "ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 13 {
		t.Fatalf("parsed %d stacks, want 13", len(samples))
	}
	const ms = 1000000
	want := map[string]int64{
		"sim":      40 * ms, // the event loop itself, and a process blocked in sim alone
		"core":     20 * ms, // a Task continuation, allocation included
		"mqueue":   10 * ms, // a kernel's hand-off while polling its ring
		"netstack": 8 * ms,  // a client's hand-off while receiving
		"bench":    10 * ms, // the harness validating a response
		"lenet":    40 * ms,
		"kvstore":  5 * ms,
		"other":    5 * ms, // internal/trace, below core
		"gc":       15 * ms,
		"runtime":  25 * ms,
		"memdev":   7 * ms,
	}
	got := map[string]int64{}
	var self, total int64
	for _, s := range samples {
		layer, isSelf := attribute(s.frames)
		got[layer] += s.value
		total += s.value
		if isSelf {
			self += s.value
		}
	}
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("%s: %d ns, want %d", l, got[l], want[l])
		}
	}
	if total != 185*ms {
		t.Errorf("total %d ns, want the header's 185ms", total)
	}
	// Innermost lynx frame in internal/sim: the event loop (30), the two
	// hand-offs (10 + 8) and the bare process (10).
	if self != 58*ms {
		t.Errorf("sim self %d ns, want %d", self, 58*ms)
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	for _, out := range []string{
		"",
		"-----------+----\n     12kB   main.main\n",
		"Type: alloc_space\n-----------+----\n     12kB   main.main\n",
		"Type: cpu\n-----------+----\n  oops   main.main\n",
	} {
		if _, err := parseTraces(out, "B"); err == nil {
			t.Errorf("parsed %q", out)
		}
	}
}

// A window too short to be sampled yields a header and no stacks.
func TestParseTracesEmptyProfile(t *testing.T) {
	out := "File: perf\nType: cpu\nDuration: 200ms, Total samples = 0 \n-----------+------\n"
	if samples, err := parseTraces(out, "ns"); err != nil || len(samples) != 0 {
		t.Fatalf("got %v, %v; want no samples and no error", samples, err)
	}
}
