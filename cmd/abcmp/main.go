// abcmp judges `make ab`'s alternating runs of a parent and a change on the
// repository benchmark (bench/perf). Its input is the benchmark declaration
// and a log of JSON lines, one per run:
//
//	{"side": "base"|"change", "workload": "echo-udp", "pair": 0, "run": <bench/perf's JSON line>}
//
// For each workload and end-to-end metric of the declaration it prints both
// sides' medians, the parent's interquartile range, the pairs the change
// won, and the verdict of internal/bench's pair rule: "gain" when the change
// wins nine tenths of at least ten pairs and its median beats the parent's by
// more than the parent's spread, "~" otherwise. The simulated metrics
// (sim_*) and the failed count must be identical within every pair; they
// print "same" or "DIFFERS".
//
// Usage:
//
//	abcmp BENCHMARK.json ab.jsonl
//
// It exits 1 when a pair's simulated metrics or failed count differ, a run
// is incorrect, or a pair is incomplete, and 2 on a wrong argument count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"lynx/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// declaration is the part of BENCHMARK.json abcmp reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// record is one line of the log.
type record struct {
	Side     string `json:"side"`
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Run      struct {
		Correct bool    `json:"correct"`
		Failed  float64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"run"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: abcmp BENCHMARK.json ab.jsonl") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var decl declaration
	buf, err := os.ReadFile(fs.Arg(0))
	if err == nil {
		err = json.Unmarshal(buf, &decl)
	}
	if err != nil {
		fmt.Fprintln(stderr, "abcmp:", err)
		return 1
	}
	recs, err := readLog(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "abcmp:", err)
		return 1
	}
	ok := true
	// runs[workload][side][pair] is that run; a pair lacking a side fails.
	runs := map[string]map[string]map[int]*record{}
	for _, r := range recs {
		if r.Side != "base" && r.Side != "change" {
			fmt.Fprintf(stderr, "abcmp: %s pair %d: unknown side %q\n", r.Workload, r.Pair, r.Side)
			return 1
		}
		if !r.Run.Correct {
			fmt.Fprintf(stderr, "abcmp: %s pair %d %s: a response was wrong\n", r.Workload, r.Pair, r.Side)
			ok = false
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string]map[int]*record{"base": {}, "change": {}}
		}
		runs[r.Workload][r.Side][r.Pair] = r
	}
	metrics := make([]string, 0, len(decl.EndToEnd)+1)
	lower := map[string]bool{"failed": true}
	for _, m := range decl.EndToEnd {
		metrics = append(metrics, m.Name)
		lower[m.Name] = m.Better == "lower"
	}
	metrics = append(metrics, "failed")
	fmt.Fprintf(stdout, "%-9s %-20s %14s %12s %14s %8s %7s  %s\n",
		"workload", "metric", "base median", "base IQR", "change median", "delta", "wins", "verdict")
	for _, w := range decl.Workloads {
		sides := runs[w.Name]
		if sides == nil {
			continue
		}
		var pairs []int
		for i := range sides["base"] {
			if sides["change"][i] != nil {
				pairs = append(pairs, i)
			}
		}
		if len(pairs) != len(sides["base"]) || len(pairs) != len(sides["change"]) {
			fmt.Fprintf(stderr, "abcmp: %s: %d base and %d change runs make %d pairs\n",
				w.Name, len(sides["base"]), len(sides["change"]), len(pairs))
			ok = false
		}
		slices.Sort(pairs)
		values := func(side string, metric string) []float64 {
			xs := make([]float64, len(pairs))
			for k, i := range pairs {
				r := sides[side][i]
				if metric == "failed" {
					xs[k] = r.Run.Failed
				} else {
					xs[k] = r.Run.Metrics[metric].Value
				}
			}
			return xs
		}
		for _, m := range metrics {
			old, new := values("base", m), values("change", m)
			p := bench.ComparePairs(old, new, lower[m])
			verdict := "~"
			switch {
			case strings.HasPrefix(m, "sim_") || m == "failed":
				verdict = "same"
				if !slices.Equal(old, new) {
					verdict = "DIFFERS"
					ok = false
				}
			case p.Gain():
				verdict = "gain"
			}
			delta := 0.0
			if p.OldMedian != 0 {
				delta = (p.NewMedian - p.OldMedian) / p.OldMedian * 100
			}
			fmt.Fprintf(stdout, "%-9s %-20s %14.6g %12.4g %14.6g %+7.1f%% %7s  %s\n",
				w.Name, m, p.OldMedian, p.OldIQR, p.NewMedian, delta, fmt.Sprintf("%d/%d", p.Wins, p.Pairs), verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// readLog parses the log's JSON lines.
func readLog(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		r := &record{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
