package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const decl = `{"workloads": [{"name": "echo-udp"}, {"name": "lenet"}],
 "end_to_end": [{"name": "host_ns_per_req", "better": "lower"}, {"name": "sim_p99_us", "better": "lower"}]}`

// writeLog writes n pairs of echo-udp runs: the change reads host time
// hostNew[i], the parent 100+i%3, and sim_p99_us simNew on the change's
// last run.
func writeLog(t *testing.T, n int, hostNew func(i int) float64, simNew float64) string {
	t.Helper()
	var b strings.Builder
	line := func(side string, i int, host, p99 float64) {
		fmt.Fprintf(&b, `{"side": %q, "workload": "echo-udp", "pair": %d, "run": {"correct": true, "failed": 0, "metrics": {"host_ns_per_req": {"value": %g}, "sim_p99_us": {"value": %g}}}}`+"\n",
			side, i, host, p99)
	}
	for i := 0; i < n; i++ {
		p99 := 25.0
		if i == n-1 {
			p99 = simNew
		}
		if i%2 == 0 {
			line("base", i, 100+float64(i%3), 25)
			line("change", i, hostNew(i), p99)
		} else {
			line("change", i, hostNew(i), p99)
			line("base", i, 100+float64(i%3), 25)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ab.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerdicts(t *testing.T) {
	for _, c := range []struct {
		name    string
		n       int
		host    func(i int) float64
		p99     float64
		code    int
		hostV   string
		p99V    string
		winsCol string
	}{
		{"a gain", 10, func(int) float64 { return 90 }, 25, 0, "gain", "same", "10/10"},
		{"a slowdown", 10, func(int) float64 { return 110 }, 25, 0, "~", "same", "0/10"},
		{"noise", 10, func(i int) float64 { return 100 + float64((i+1)%3) }, 25, 0, "~", "same", "3/10"},
		{"too few pairs", 9, func(int) float64 { return 90 }, 25, 0, "~", "same", "9/9"},
		{"a simulated metric moved", 10, func(int) float64 { return 90 }, 26, 1, "gain", "DIFFERS", "10/10"},
	} {
		path := writeLog(t, c.n, c.host, c.p99)
		var out, errOut bytes.Buffer
		if code := run([]string{filepath.Join(filepath.Dir(path), "BENCHMARK.json"), path}, &out, &errOut); code != c.code {
			t.Errorf("%s: exit %d, want %d; stderr %s", c.name, code, c.code, errOut.String())
		}
		rows := map[string][]string{}
		for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			f := strings.Fields(l)
			rows[f[0]+" "+f[1]] = f
		}
		if len(rows) != 3 {
			t.Fatalf("%s: want echo-udp's two metrics and failed, got:\n%s", c.name, out.String())
		}
		host, p99 := rows["echo-udp host_ns_per_req"], rows["echo-udp sim_p99_us"]
		if host[6] != c.winsCol || host[7] != c.hostV || p99[7] != c.p99V || rows["echo-udp failed"][7] != "same" {
			t.Errorf("%s: got\n%s", c.name, out.String())
		}
	}
}

func TestIncompletePairFails(t *testing.T) {
	path := writeLog(t, 10, func(int) float64 { return 90 }, 25)
	buf, _ := os.ReadFile(path)
	lines := strings.SplitAfter(strings.TrimSpace(string(buf)), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(lines)-1], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{filepath.Join(filepath.Dir(path), "BENCHMARK.json"), path}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "make 9 pairs") {
		t.Fatalf("exit %d, stderr %q; want 1 and the pair count", code, errOut.String())
	}
}

func TestWrongArgumentCount(t *testing.T) {
	for _, args := range [][]string{nil, {"BENCHMARK.json"}, {"a", "b", "c"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "usage: abcmp") {
			t.Errorf("run(%q) = %d, stderr %q; want 2 and the usage line", args, code, errOut.String())
		}
	}
}
