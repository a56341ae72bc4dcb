// Command perf is the repository's performance benchmark. It measures two
// kinds of performance at four of the paper's operating points:
//
//   - simulator performance: the host wall time, CPU time, allocation, live
//     heap and set-up time it costs to simulate one request, measured with
//     tracing off;
//   - simulated performance: the virtual-time goodput and latency of the
//     modelled Lynx, deterministic for a given seed and window.
//
// One run builds one workload's deployment through the repository's public
// constructors, drives it with seeded closed-loop clients that check every
// response, and prints one JSON line:
//
//	go run . -workload echo-udp -seed 1 -seconds 10 -trace 0
//
// With -trace 1 the run measures the same window twice, untraced and under
// CPU and allocation profiles, fails if the two simulations differ, and
// prints the per-layer metrics instead. README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lynx/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: setups}
	fs.StringVar(&cfg.workload, "workload", "", "workload: echo-udp, echo-tcp, lenet or kv-rack")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the simulation and of the clients' inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "reference host seconds of the measured window; scales its virtual length")
	tr := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&cfg.profiles, "profiles", filepath.Join(".bench_build", "perf-profiles"), "directory for the traced run's profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*tr != 0 && *tr != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perf: usage: perf -workload <name> [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	cfg.traced = *tr == 1
	rep, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	return 0
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	profiles string
	setups   int          // builds of the untraced run; setup_s is their median
	tamper   func([]byte) // see buildOpts
}

// report is the JSON line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// memProfileRate samples the traced window's allocations every 16 KiB on
// average, about a hundred times more often than the default, so that small
// layers get enough samples.
const memProfileRate = 16 << 10

func bench(cfg config) (*report, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	o := buildOpts{seed: cfg.seed, tamper: cfg.tamper}
	if w.name == "lenet" {
		// Reference answers come from the harness's own network, built
		// before any set-up is timed.
		if o.refs, err = newLenetRefs(); err != nil {
			return nil, err
		}
	}
	scale := cfg.seconds / 10
	u, err := measure(w, o, scale, max(cfg.setups, 1), nil)
	if err != nil {
		return nil, err
	}
	if u.responses() == 0 {
		return nil, fmt.Errorf("%s: no request of %d was answered correctly", w.name, u.ops)
	}
	rep := &report{Correct: u.wrong == 0, Attempted: u.ops, Failed: u.failed}
	if !cfg.traced {
		rep.Metrics = endToEnd(u)
		return rep, nil
	}

	runtime.MemProfileRate = memProfileRate
	p := &profiler{dir: filepath.Join(cfg.profiles, w.name)}
	o.traced = true
	t, err := measure(w, o, scale, 1, p)
	if err != nil {
		return nil, err
	}
	if err := sameSimulation(u, t); err != nil {
		return nil, fmt.Errorf("%s: tracing changed the simulation: %w", w.name, err)
	}
	a, err := p.attribute()
	if err != nil {
		return nil, err
	}
	rep.Metrics = perLayer(u, t, a)
	return rep, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// endToEnd computes the metrics a user of the simulator sees, over the
// untraced window: host cost per correct answer, and the simulated goodput
// and latency.
func endToEnd(r *result) map[string]metric {
	n := float64(r.answered)
	return map[string]metric{
		"host_ns_per_req":     {r.wallPerReq, "ns"},
		"cpu_ns_per_req":      {r.cpuPerReq, "ns"},
		"allocs_per_req":      {float64(r.mallocs) / n, "count"},
		"alloc_bytes_per_req": {float64(r.allocBytes) / n, "B"},
		"heap_mb":             {float64(r.heapBytes) / 1e6, "MB"},
		"setup_s":             {median(r.setup).Seconds(), "s"},
		"sim_goodput_rps":     {float64(r.responses()) / r.window.Seconds(), "req/s"},
		"sim_p50_us":          {us(quantile(r.lat, 0.50)), "us"},
		"sim_p99_us":          {us(quantile(r.lat, 0.99)), "us"},
	}
}

// sameSimulation checks that the traced run simulated exactly what the
// untraced one did.
func sameSimulation(u, t *result) error {
	if u.ops != t.ops || u.failed != t.failed || u.answered != t.answered || u.layer != t.layer {
		return fmt.Errorf("ops %d/%d failed %d/%d answered %d/%d counters %+v/%+v",
			u.ops, t.ops, u.failed, t.failed, u.answered, t.answered, u.layer, t.layer)
	}
	for i := range u.lat {
		if u.lat[i] != t.lat[i] {
			return fmt.Errorf("latency sample %d: %v untraced, %v traced", i, u.lat[i], t.lat[i])
		}
	}
	return nil
}

// perLayer computes the per-layer metrics. Counts come from the untraced
// run (the traced one simulates the same events), host cost per layer from
// the traced run's profiles, and phase times from its span tables.
func perLayer(u, t *result, a *attribution) map[string]metric {
	n := float64(u.answered)
	per := func(v uint64) float64 { return float64(v) / n }
	perK := func(v uint64) float64 { return 1000 * float64(v) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := u.layer
	m := map[string]metric{
		"sim.events_per_req":             {per(c.events), "count"},
		"rdma.ops_per_req":               {per(c.rdmaOps), "count"},
		"fabric.transfers_per_req":       {per(c.transfers), "count"},
		"mqueue.ring_full_per_kreq":      {perK(c.ringFull), "count"},
		"core.drops_per_kreq":            {perK(c.drops), "count"},
		"core.retries_per_kreq":          {perK(c.coreRetries), "count"},
		"accel.gpu_busy_frac":            {ratio(float64(c.gpuBusy), float64(u.window)*float64(c.gpuResident)), "ratio"},
		"cluster.repl_records_per_write": {ratio(float64(c.replRecords), float64(c.replWrites)), "count"},
		"bench.client_retries_per_kreq":  {1000 * float64(u.retries) / float64(u.ops), "count"},
		"lenet.repeat_input_frac":        {ratio(float64(u.lenet.repeats), float64(u.lenet.requests)), "ratio"},
		"lenet.classify_ns":              {ratio(float64(t.lenet.classifyTime), float64(t.lenet.classifies)), "ns"},
		"setup.build_s":                  {median(u.build).Seconds(), "s"},
		"setup.warmup_s":                 {median(u.warm).Seconds(), "s"},
		"trace.overhead_frac":            {t.wallPerReq/u.wallPerReq - 1, "ratio"},
		"trace.cpu_ns_per_req":           {float64(t.cpu) / n, "ns"},
		"sim.self_cpu_ns_per_req":        {float64(a.simSelf) / n, "ns"},
	}
	for _, l := range layers {
		m[l+".cpu_ns_per_req"] = metric{float64(a.cpu[l]) / n, "ns"}
		m[l+".alloc_bytes_per_req"] = metric{float64(a.alloc[l]) / n, "B"}
	}
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		m["phase."+ph.String()+".wait_us"] = metric{us(t.phaseWait[ph]), "us"}
		m["phase."+ph.String()+".service_us"] = metric{us(t.phaseServe[ph]), "us"}
	}
	return m
}
