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

func TestBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestProfileJSONFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prof.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-secs", "0.05", "-profile-json", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "profile report written to") {
		t.Errorf("missing profile summary:\n%s", out.String())
	}
	raw, err := os.ReadFile(path)
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

// TestRackArtifactFlags: a rack writes the same three artifact files a
// single server does — the timeline and metrics with a block per node, the
// attribution report from node 0.
func TestRackArtifactFlags(t *testing.T) {
	dir := t.TempDir()
	tr, met, prof := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json"), filepath.Join(dir, "p.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-nodes", "3", "-replicas", "3", "-secs", "0.02", "-clients", "4",
		"-trace-json", tr, "-metrics-json", met, "-profile-json", prof}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"trace timeline written to", "metrics written to", "profile report written to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
	for _, c := range []struct{ path, want string }{
		{tr, `"name":"server3/snic"`},
		{met, `"server2/snic/core-util"`},
		{prof, `"spans_closed"`},
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
	var rep struct {
		SpansClosed uint64 `json:"spans_closed"`
	}
	raw, _ := os.ReadFile(prof)
	if err := json.Unmarshal(raw, &rep); err != nil || rep.SpansClosed == 0 {
		t.Errorf("node 0 report closed no spans (err %v)", err)
	}
}

// TestRackRejectsSingleServerFlags: flags that configure the single server
// are a usage error on a rack rather than silently ignored.
func TestRackRejectsSingleServerFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "lenet"}, {"-platform", "xeon"}, {"-cores", "2"}, {"-queues", "4"},
		{"-batch", "8"}, {"-batch-cq", "4"}, {"-batch-quantum", "4"},
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

// TestTraceAndMetricsJSONFlags: a single server's timeline is the one-node
// layout (no node prefix) and its metrics dump carries the monitor series
// and the testbed counters.
func TestTraceAndMetricsJSONFlags(t *testing.T) {
	dir := t.TempDir()
	tr, met := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-secs", "0.02", "-clients", "4", "-trace", "3", "-trace-json", tr, "-metrics-json", met}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "last 3 events:") {
		t.Errorf("-trace tail missing:\n%s", out.String())
	}
	raw, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) || !bytes.Contains(raw, []byte(`"name":"snic"`)) || bytes.Contains(raw, []byte("server1/")) {
		t.Error("single-server timeline is not the unprefixed one-node layout")
	}
	raw, err = os.ReadFile(met)
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
	if len(dump.Series["snic/core-util"]) == 0 || dump.Stats["fabric"] == nil {
		t.Errorf("metrics dump lacks the monitor series or testbed stats: %d series, stats %v",
			len(dump.Series), dump.Stats["fabric"])
	}
}
