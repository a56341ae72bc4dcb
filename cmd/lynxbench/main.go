// Command lynxbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	lynxbench -list                 # list experiments
//	lynxbench -exp fig8a            # run one experiment
//	lynxbench -exp all              # run everything
//	lynxbench -exp fig6 -scale 0.5  # shorter measurement windows
//	lynxbench -seed 7               # different deterministic seed
//	lynxbench -exp all -parallel 1  # force sequential sweeps
//	lynxbench -exp all -invariants  # assert runtime invariants on every run
//	lynxbench -exp attribution -profile-json prof.json
//	                                # dump the tail-latency attribution report
//	lynxbench -exp replbreakdown -trace-json t.json -metrics-json m.json
//	                                # rack timeline and metrics, one block per node
//	lynxbench -exp fig6 -top 10     # table of the 10 slowest requests
//	lynxbench -exp fig6 -batch 8    # end-to-end batching (doorbell, CQ drain,
//	                                # dispatcher quantum) of 8 on every run
//	lynxbench -baseline out.json    # measure and persist a regression-sentinel
//	                                # baseline artifact (attribution report,
//	                                # scorecard, knee predictions)
//	lynxbench -compare old.json     # re-measure and diff against a baseline;
//	                                # non-zero exit when anything moved out of
//	                                # its noise band
//	lynxbench -compare a.json -compare-to b.json
//	                                # diff two recorded artifacts, no measuring
//
// Output is a text table per experiment, with the paper's numbers alongside
// the measured ones. Runs are bit-reproducible for a given seed and scale:
// independent sweep points fan out across workers (one simulation per
// worker), but results are collected by index, so the report does not depend
// on -parallel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"lynx/internal/check"
	"lynx/internal/experiments"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/sentinel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lynxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "experiment id to run, or 'all'")
		list       = fs.Bool("list", false, "list available experiments")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		scale      = fs.Float64("scale", 1.0, "measurement window scale factor")
		csv        = fs.Bool("csv", false, "emit CSV instead of text tables")
		loss       = fs.Float64("loss", 0, "inject datagram drop probability into every experiment (0..1)")
		parallel   = fs.Int("parallel", 0, "sweep workers: 0 = one per CPU, 1 = sequential, n = n workers")
		invariants = fs.Bool("invariants", false, "arm runtime invariant checks on every simulation; non-zero exit on any violation")
		batch      = fs.Int("batch", 0, "doorbell batch size for every experiment run (0 = unbatched; experiments that pin their own batching, like -exp batch, are unaffected)")
		batchCQ    = fs.Int("batch-cq", 0, "completion/TX drain budget (0 = follow -batch)")
		batchQuant = fs.Int("batch-quantum", 0, "dispatcher scheduling quantum in messages (0 = follow -batch)")
		traceJSON  = fs.String("trace-json", "", "write the Chrome trace-event timeline (one process-track block per node) of an instrumented experiment (breakdown, attribution, replbreakdown) to this file")
		metJSON    = fs.String("metrics-json", "", "write the deterministic metrics dump (stats and monitor series, a rack's per node) of an instrumented experiment to this file")
		profJSON   = fs.String("profile-json", "", "write the tail-latency attribution report (wait/service decomposition, bottleneck ranking, flight recorder; a rack's node 0) of an instrumented experiment to this file")
		topN       = fs.Int("top", 0, "print the N slowest requests (status, per-phase wait/service) after the runs")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		baseline   = fs.String("baseline", "", "measure a regression-sentinel baseline (attribution report, scorecard, knee predictions) and write the artifact to this file")
		compare    = fs.String("compare", "", "diff the current build against this baseline artifact: re-measure (or use -compare-to) and report attribution-level moves outside their noise bands")
		compareTo  = fs.String("compare-to", "", "with -compare, diff against this recorded artifact instead of re-measuring")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *baseline != "" || *compare != "" {
		workers := *parallel
		if workers <= 0 {
			workers = experiments.AutoWorkers
		}
		bc, err := model.BatchConfigFromFlags(*batch, *batchCQ, *batchQuant)
		if err != nil {
			fmt.Fprintln(stderr, "lynxbench:", err)
			return 2
		}
		cfg := experiments.Config{Seed: *seed, Scale: *scale, Workers: workers, Batch: bc}
		return sentinelMode(cfg, *baseline, *compare, *compareTo, stdout, stderr)
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range experiments.List() {
			fmt.Fprintf(stdout, "  %-18s %s\n", id, experiments.Describe(id))
		}
		if *exp == "" {
			fmt.Fprintln(stdout, "\nrun one with: lynxbench -exp <id>   (or -exp all)")
		}
		return 0
	}

	if *exp == "all" && (*traceJSON != "" || *metJSON != "" || *profJSON != "") {
		// Each instrumented experiment would overwrite the last one's file.
		fmt.Fprintln(stderr, "lynxbench: -trace-json, -metrics-json and -profile-json need a single -exp, not all")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "lynxbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "lynxbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.List()
	}
	workers := *parallel
	if workers <= 0 {
		workers = experiments.AutoWorkers
	}
	bc, err := model.BatchConfigFromFlags(*batch, *batchCQ, *batchQuant)
	if err != nil {
		fmt.Fprintln(stderr, "lynxbench:", err)
		return 2
	}
	cfg := experiments.Config{Seed: *seed, Scale: *scale, Workers: workers, TraceJSON: *traceJSON, MetricsJSON: *metJSON, ProfileJSON: *profJSON, Batch: bc}
	if *topN > 0 {
		cfg.Top = experiments.NewTopCollector(*topN)
	}
	if *loss > 0 {
		cfg.Faults = fault.Config{Seed: *seed, DropRate: *loss}
	}
	if *invariants {
		cfg.Invariants = check.NewAggregate()
	}
	failed := false
	for _, id := range ids {
		start := time.Now()
		report, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "lynxbench:", err)
			return 1
		}
		failed = failed || report.Failed
		if *csv {
			fmt.Fprint(stdout, report.CSV())
			continue
		}
		fmt.Fprintln(stdout, report)
		fmt.Fprintf(stdout, "  (%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if cfg.Top != nil {
		if *csv {
			fmt.Fprint(stdout, cfg.Top.Table().CSV())
		} else {
			fmt.Fprintln(stdout, cfg.Top.Table())
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "lynxbench:", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "lynxbench:", err)
			return 1
		}
	}

	if *invariants {
		rep := cfg.Invariants.Report()
		// Keep -csv output machine-parseable: status goes to stderr there.
		w := stdout
		if *csv {
			w = stderr
		}
		fmt.Fprintf(w, "%s (%d simulations)\n", rep, cfg.Invariants.Runs())
		if !rep.OK() {
			return 1
		}
	}
	if failed {
		fmt.Fprintln(stderr, "lynxbench: scorecard claims FAILED")
		return 1
	}
	return 0
}

// sentinelMode handles -baseline and -compare: the regression-sentinel CLI.
func sentinelMode(cfg experiments.Config, baseline, compare, compareTo string, stdout, stderr io.Writer) int {
	if baseline != "" && compare != "" {
		fmt.Fprintln(stderr, "lynxbench: -baseline and -compare are mutually exclusive")
		return 2
	}
	if baseline != "" {
		a := experiments.BuildSentinelArtifact(cfg)
		if err := a.WriteFile(baseline); err != nil {
			fmt.Fprintln(stderr, "lynxbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "sentinel baseline written to %s (%d claims, %d knees, fingerprint %s)\n",
			baseline, len(a.Scorecard), len(a.Knees), a.Fingerprint.Config)
		return 0
	}
	old, err := sentinel.Read(compare)
	if err != nil {
		fmt.Fprintln(stderr, "lynxbench:", err)
		return 1
	}
	cur := (*sentinel.Artifact)(nil)
	if compareTo == "" {
		cur = experiments.BuildSentinelArtifact(cfg)
	} else if cur, err = sentinel.Read(compareTo); err != nil {
		fmt.Fprintln(stderr, "lynxbench:", err)
		return 1
	}
	d := sentinel.Diff(old, cur, sentinel.Options{})
	fmt.Fprint(stdout, d.String())
	if !d.Clean() {
		return 1
	}
	return 0
}
