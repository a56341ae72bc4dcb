package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWrongArgumentCount(t *testing.T) {
	for _, args := range [][]string{nil, {"old.txt"}, {"a.txt", "b.txt", "c.txt"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "usage: benchcmp old.txt new.txt") {
			t.Errorf("run(%q) stderr %q, want the usage line", args, errOut.String())
		}
	}
}

func TestSelfComparisonShowsNoDelta(t *testing.T) {
	const rec = `BenchmarkSimEngine/echo-8   1000   200.0 ns/op   5000000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-8   1000   203.0 ns/op   4950000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-8   1000   198.0 ns/op   5050000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/timers-8 1000   25.0 ns/op   40000000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/timers-8 1000   26.0 ns/op   38500000 events/sec   0 B/op   0 allocs/op
`
	path := filepath.Join(t.TempDir(), "rec.txt")
	if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{path, path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+2*4 {
		t.Fatalf("want a header and 8 rows, got:\n%s", out.String())
	}
	for _, l := range lines[1:] {
		if f := strings.Fields(l); f[4] != "~" {
			t.Errorf("self-comparison row shows a delta: %q", l)
		}
	}
	if strings.Contains(out.String(), "%") {
		t.Errorf("self-comparison printed a significant delta:\n%s", out.String())
	}
}
