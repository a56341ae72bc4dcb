package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"fig6", "fig7", "scorecard", "sec62-innova"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "no-such-experiment"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown experiment: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Error("error not printed to stderr")
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestSmallExperimentWithInvariants(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "sec51-barrier", "-scale", "0.1", "-invariants"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	s := out.String()
	if !strings.Contains(s, "sec51-barrier") {
		t.Error("report missing")
	}
	if !strings.Contains(s, "invariants: ok") {
		t.Errorf("invariant summary missing:\n%s", s)
	}
}

func TestCSVOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "sec511-vma", "-scale", "0.1", "-csv"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "sec511-vma,") {
		t.Errorf("CSV output malformed:\n%s", out.String())
	}
}

func TestTopAndProfileJSONFlags(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "breakdown", "-scale", "0.1", "-top", "3", "-obs", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "slowest requests") || !strings.Contains(s, "span ") {
		t.Errorf("-top table missing:\n%s", s)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "profile.json"))
	if err != nil {
		t.Fatalf("-obs wrote no profile.json: %v", err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("profile JSON invalid: %v", err)
	}
	for _, key := range []string{"spans_closed", "phases", "bottlenecks", "top"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("profile JSON missing %q", key)
		}
	}
}

// TestLossOutOfRange: a drop probability outside [0, 1] is a usage error,
// like a negative -batch, not a drop-everything or lossless run.
func TestLossOutOfRange(t *testing.T) {
	for _, loss := range []string{"2", "-0.5", "NaN"} {
		t.Run(loss, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run([]string{"-exp", "fig7", "-scale", "0.01", "-loss", loss}, &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if !strings.Contains(errOut.String(), "within [0, 1]") {
				t.Errorf("usage error missing: %s", errOut.String())
			}
		})
	}
}

// TestExpAllRejectsArtifactFlags: every instrumented experiment writes the
// same -obs file names, so -exp all would keep only the last one's files;
// the combination is a usage error and writes nothing. The per-file flags
// that -obs replaced are parse errors.
func TestExpAllRejectsArtifactFlags(t *testing.T) {
	for _, flag := range []string{"-obs", "-trace-json", "-metrics-json", "-profile-json"} {
		t.Run(flag, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out")
			var out, errOut bytes.Buffer
			if code := run([]string{"-exp", "all", "-scale", "0.01", flag, path}, &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			want := "flag provided but not defined"
			if flag == "-obs" {
				want = "single -exp"
			}
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("usage error missing: %s", errOut.String())
			}
			if _, err := os.Stat(path); err == nil {
				t.Error("artifact written despite the usage error")
			}
		})
	}
}

// TestRackExperimentArtifactFlags: the rack experiment writes the same three
// -obs files as the single-server ones, one block per node.
func TestRackExperimentArtifactFlags(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "replbreakdown", "-scale", "0.1", "-obs", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, c := range []struct{ name, want string }{
		{"trace.json", `"name":"server3/snic"`},
		{"metrics.json", `"server1/repl/held"`},
		{"profile.json", `"replication"`},
	} {
		raw, err := os.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			t.Fatalf("artifact not written: %v", err)
		}
		if !json.Valid(raw) {
			t.Errorf("%s is not valid JSON", c.name)
		}
		if !bytes.Contains(raw, []byte(c.want)) {
			t.Errorf("%s lacks %s", c.name, c.want)
		}
	}
}
