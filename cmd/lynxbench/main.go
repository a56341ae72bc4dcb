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
//	lynxbench -exp attribution -obs out
//	                                # write out/trace.json, out/metrics.json and
//	                                # out/profile.json (the attribution report)
//	lynxbench -exp replbreakdown -obs out
//	                                # rack timeline and metrics, one block per node
//	lynxbench -exp fig6 -top 10     # table of the 10 slowest requests
//	lynxbench -exp fig6 -batch 8    # end-to-end batching (doorbell, CQ drain,
//	                                # dispatcher quantum) of 8 on every run
//
// Output is a text table per experiment, with the paper's numbers alongside
// the measured ones. Runs are bit-reproducible for a given seed and scale:
// independent sweep points fan out across workers (one simulation per
// worker), but results are collected by point, so the report does not depend
// on -parallel. The experiments of one invocation share a memo of
// measurement points, so a point several of them read is simulated once; the
// output does not depend on it either. The point counts go to stderr.
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
		obsDir     = fs.String("obs", "", "write an instrumented experiment's (breakdown, attribution, replbreakdown) artifacts into this directory: trace.json (Chrome trace-event timeline, one process-track block per node), metrics.json (metrics dump, a rack's per node) and profile.json (node 0's tail-latency attribution report)")
		topN       = fs.Int("top", 0, "print the N slowest requests (status, per-phase wait/service) after the runs")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	workers := *parallel
	if workers <= 0 {
		workers = experiments.AutoWorkers
	}
	bc, err := model.BatchConfigFromFlags(*batch)
	if err != nil {
		fmt.Fprintln(stderr, "lynxbench:", err)
		return 2
	}
	faults := fault.Config{Seed: *seed, DropRate: *loss}
	if err := faults.Validate(); err != nil {
		fmt.Fprintln(stderr, "lynxbench:", err)
		return 2
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

	if *exp == "all" && *obsDir != "" {
		// Each instrumented experiment would overwrite the last one's files.
		fmt.Fprintln(stderr, "lynxbench: -obs needs a single -exp, not all")
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
	cfg := experiments.Config{Seed: *seed, Scale: *scale, Workers: workers, Obs: *obsDir, Batch: bc}
	if *topN > 0 {
		cfg.Top = experiments.NewTopCollector(*topN)
	}
	if *loss > 0 {
		cfg.Faults = faults
	}
	if *invariants {
		cfg.Invariants = check.NewAggregate()
	}
	start := time.Now()
	out, err := experiments.Run(cfg, ids...)
	if err != nil {
		fmt.Fprintln(stderr, "lynxbench:", err)
		return 1
	}
	failed := false
	for _, report := range out.Reports {
		failed = failed || report.Failed
		if *csv {
			fmt.Fprint(stdout, report.CSV())
			continue
		}
		fmt.Fprintln(stdout, report)
	}
	if !*csv {
		fmt.Fprintf(stdout, "(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(stderr, "points: %d simulated, %d from memo\n", out.Simulated, out.FromMemo)

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
