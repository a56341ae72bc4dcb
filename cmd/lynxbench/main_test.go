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
	path := filepath.Join(dir, "prof.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "breakdown", "-scale", "0.1", "-top", "3", "-profile-json", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "slowest requests") || !strings.Contains(s, "span ") {
		t.Errorf("-top table missing:\n%s", s)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-profile-json wrote nothing: %v", err)
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

func TestSentinelBaselineAndCompareFlags(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-baseline", path, "-scale", "0.1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("-baseline exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "sentinel baseline written") {
		t.Errorf("baseline confirmation missing:\n%s", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-baseline wrote nothing: %v", err)
	}
	var art map[string]any
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("artifact JSON invalid: %v", err)
	}
	for _, key := range []string{"version", "fingerprint", "report", "scorecard", "knees"} {
		if _, ok := art[key]; !ok {
			t.Errorf("artifact missing %q", key)
		}
	}
	// Diffing the artifact against its own bytes must report no change.
	out.Reset()
	errOut.Reset()
	code = run([]string{"-compare", path, "-compare-to", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("self-compare exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "no change") {
		t.Errorf("self-compare did not report no change:\n%s", out.String())
	}
}

func TestSentinelFlagsMutuallyExclusive(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", "a.json", "-compare", "b.json"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Errorf("usage error missing: %s", errOut.String())
	}
}

func TestSentinelCompareRejectsVersionSkew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", path, "-compare-to", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "version") {
		t.Errorf("skew error missing: %s", errOut.String())
	}
}

// TestExpAllRejectsArtifactFlags: every instrumented experiment writes the
// same artifact paths, so -exp all would keep only the last one's file; the
// combination is a usage error and writes nothing.
func TestExpAllRejectsArtifactFlags(t *testing.T) {
	for _, flag := range []string{"-trace-json", "-metrics-json", "-profile-json"} {
		t.Run(flag, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.json")
			var out, errOut bytes.Buffer
			if code := run([]string{"-exp", "all", "-scale", "0.01", flag, path}, &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if !strings.Contains(errOut.String(), "single -exp") {
				t.Errorf("usage error missing: %s", errOut.String())
			}
			if _, err := os.Stat(path); err == nil {
				t.Error("artifact written despite the usage error")
			}
		})
	}
}

// TestRackExperimentArtifactFlags: the rack experiment honours the same
// three artifact flags as the single-server ones, one block per node.
func TestRackExperimentArtifactFlags(t *testing.T) {
	dir := t.TempDir()
	tr, met, prof := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json"), filepath.Join(dir, "p.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "replbreakdown", "-scale", "0.1", "-trace-json", tr, "-metrics-json", met, "-profile-json", prof}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, c := range []struct{ path, want string }{
		{tr, `"name":"server3/snic"`},
		{met, `"server1/repl/held"`},
		{prof, `"replication"`},
	} {
		raw, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatalf("artifact not written: %v", err)
		}
		if !json.Valid(raw) {
			t.Errorf("%s is not valid JSON", filepath.Base(c.path))
		}
		if !bytes.Contains(raw, []byte(c.want)) {
			t.Errorf("%s lacks %s", filepath.Base(c.path), c.want)
		}
	}
}
