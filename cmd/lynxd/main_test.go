package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEchoSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-secs", "0.05", "-clients", "4", "-queues", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "echo service on") {
		t.Error("banner missing")
	}
	if !strings.Contains(s, "result:") {
		t.Error("final result missing")
	}
}

func TestLenetSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-app", "lenet", "-secs", "0.02", "-clients", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "lenet service on") {
		t.Error("banner missing")
	}
}

func TestInvariantsFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-secs", "0.02", "-clients", "4", "-queues", "2", "-invariants"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "invariants: ok") {
		t.Errorf("invariant report missing from output:\n%s", out.String())
	}
}

func TestUnknownApp(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-app", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown app: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown app") {
		t.Error("error not printed to stderr")
	}
}

// TestBadFlag: an unknown flag is a parse error, and so is each per-file
// artifact flag that -obs replaced.
func TestBadFlag(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-trace-json", "-metrics-json", "-profile-json"} {
		var out, errOut bytes.Buffer
		if code := run([]string{flag, "out.json"}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
	}
}

// TestFaultProbabilityOutOfRange: a fault probability outside [0, 1] is a
// usage error, not a drop-everything or no-fault run.
func TestFaultProbabilityOutOfRange(t *testing.T) {
	for _, args := range [][]string{{"-loss", "2"}, {"-loss", "-0.5"}, {"-dup", "1.5"}, {"-rdma-err", "-1"}} {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(append([]string{"-secs", "0.01"}, args...), &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if !strings.Contains(errOut.String(), "within [0, 1]") {
				t.Errorf("usage error missing: %s", errOut.String())
			}
		})
	}
}

// obsNames fails t unless dir holds exactly the three fixed -obs names.
func obsNames(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "metrics.json profile.json trace.json" {
		t.Errorf("-obs wrote %q, want the three fixed names", got)
	}
}

func TestProfileJSONFlag(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-secs", "0.05", "-obs", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "profile report written to") {
		t.Errorf("missing profile summary:\n%s", out.String())
	}
	obsNames(t, dir)
	raw, err := os.ReadFile(filepath.Join(dir, "profile.json"))
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		SpansClosed uint64           `json:"spans_closed"`
		Bottlenecks []map[string]any `json:"bottlenecks"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("profile JSON invalid: %v", err)
	}
	if rep.SpansClosed == 0 || len(rep.Bottlenecks) == 0 {
		t.Fatalf("profile JSON empty: %+v", rep)
	}
}

// TestRackArtifactFlags: a rack writes the same three -obs files a single
// server does — the timeline and metrics with a block per node, the
// attribution report from node 0.
func TestRackArtifactFlags(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-nodes", "3", "-replicas", "3", "-secs", "0.02", "-clients", "4", "-obs", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"trace timeline written to", "metrics written to", "profile report written to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
	obsNames(t, dir)
	for _, c := range []struct{ name, want string }{
		{"trace.json", `"name":"server3/snic"`},
		{"metrics.json", `"server2/snic/core-util"`},
		{"profile.json", `"spans_closed"`},
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
	var rep struct {
		SpansClosed uint64 `json:"spans_closed"`
	}
	raw, _ := os.ReadFile(filepath.Join(dir, "profile.json"))
	if err := json.Unmarshal(raw, &rep); err != nil || rep.SpansClosed == 0 {
		t.Errorf("node 0 report closed no spans (err %v)", err)
	}
}

// TestRackRejectsSingleServerFlags: flags that configure the single server
// are a usage error on a rack rather than silently ignored.
func TestRackRejectsSingleServerFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "lenet"}, {"-platform", "xeon"}, {"-cores", "2"}, {"-queues", "4"},
		{"-batch", "8"},
	} {
		t.Run(args[0], func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run(append([]string{"-nodes", "3", "-replicas", "3", "-secs", "0.01"}, args...), &out, &errOut)
			if code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if !strings.Contains(errOut.String(), args[0]) {
				t.Errorf("error does not name %s: %s", args[0], errOut.String())
			}
		})
	}
}

// TestTraceAndMetricsJSONFlags: the -trace tail is headed by the event and
// recency rings' capacities and losses, a single server's timeline is the
// one-node layout (no node prefix) and its metrics dump carries the monitor
// series and the testbed counters.
func TestTraceAndMetricsJSONFlags(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-secs", "0.02", "-clients", "4", "-trace", "3", "-obs", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "last 3 events:") {
		t.Errorf("-trace tail missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "event ring: cap 4096, lost ") || !strings.Contains(out.String(), "; recent spans: cap 64, lost ") {
		t.Errorf("-trace header does not say what the bounded rings overwrote:\n%s", out.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) || !bytes.Contains(raw, []byte(`"name":"snic"`)) || bytes.Contains(raw, []byte("server1/")) {
		t.Error("single-server timeline is not the unprefixed one-node layout")
	}
	raw, err = os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Stats  map[string]map[string]float64 `json:"stats"`
		Series map[string][]map[string]any   `json:"series"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if len(dump.Series["snic/core-util"]) == 0 || dump.Stats["faults"] == nil {
		t.Errorf("metrics dump lacks the monitor series or testbed stats: %d series, stats %v",
			len(dump.Series), dump.Stats["faults"])
	}
}

// TestGoldens pins lynxd's stdout byte for byte for one echo server, one
// LeNet server and one rack: the banner, the live stats lines and the
// result are all deterministic given the flags. After an intentional change,
// regenerate with LYNX_UPDATE_GOLDENS=1 (make goldens) and say which lines
// moved.
func TestGoldens(t *testing.T) {
	for _, g := range []struct {
		file string
		args []string
	}{
		{"echo.txt", []string{"-app", "echo", "-secs", "0.05", "-clients", "4", "-queues", "2"}},
		{"lenet.txt", []string{"-app", "lenet", "-secs", "0.02", "-clients", "2"}},
		{"rack.txt", []string{"-nodes", "3", "-secs", "0.02"}},
	} {
		t.Run(g.file, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(g.args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut.String())
			}
			path := filepath.Join("testdata", g.file)
			if os.Getenv("LYNX_UPDATE_GOLDENS") != "" {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("lynxd %s stdout differs from %s:\ngot:\n%s\nwant:\n%s", strings.Join(g.args, " "), path, out.String(), want)
			}
		})
	}
}
