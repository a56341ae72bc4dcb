// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 motivation measurements and §6), one harness per
// experiment. Each harness assembles the full simulated testbed — clients,
// switch, SmartNICs, GPUs/VCA, Lynx or the host-centric baseline — drives a
// sockperf-style workload, and emits the same rows/series the paper reports,
// alongside the paper's numbers for comparison.
//
// Invoke experiments through Run/Registry (cmd/lynxbench) or the Benchmark*
// functions in the repository root.
package experiments

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strings"
	"time"

	"lynx/internal/accel"
	"lynx/internal/check"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/profile"
	"lynx/internal/snic"
	"lynx/internal/workload"
)

// Config parameterizes a run.
type Config struct {
	// Seed for the deterministic simulation.
	Seed uint64
	// Scale multiplies measurement windows (1.0 = standard; tests may use
	// less, long calibration runs more).
	Scale float64
	// Faults, when enabled, applies a deterministic fault-injection plan to
	// every testbed the experiment builds (degradation experiments).
	Faults fault.Config
	// Workers bounds how many independent sweep points run concurrently,
	// each on its own Sim. 0 or 1 runs sequentially; AutoWorkers (-1) uses
	// one worker per CPU. Reports are byte-identical regardless of the
	// setting: results are collected by sweep index, and every point is
	// deterministic given (Seed, Scale).
	Workers int
	// Obs, when non-empty, names the directory into which the
	// instrumented experiments (breakdown, attribution, replbreakdown) write
	// their observability artifacts under fixed names: the Chrome
	// trace-event timeline with one process-track block per node
	// (trace.json), the deterministic metrics dump with a rack's series
	// under "<node>/" prefixes (metrics.json) and node 0's tail-latency
	// attribution report (profile.json). With Invariants also armed, an
	// invariant violation in breakdown or attribution dumps a postmortem
	// flight-recorder report there as profile.json.postmortem.
	Obs string
	// Invariants, when non-nil, arms a runtime invariant checker on every
	// testbed the experiment builds; each sweep point finalizes its checker
	// at shutdown and merges the report here. Checked runs stay
	// bit-identical to unchecked ones.
	Invariants *check.Aggregate
	// Top, when non-nil, arms span tracing plus a flight recorder on every
	// testbed the experiment builds and collects each testbed's slowest
	// completed requests here (cmd/lynxbench -top).
	Top *TopCollector
	// Batch installs a hot-path batching configuration (doorbell coalescing,
	// CQ drain budget, dispatcher quantum) on every testbed the experiment
	// builds, except testbeds whose experiment pins its own batching (the
	// -exp batch sweep compares configurations explicitly). The zero value
	// batches nothing and leaves every result byte-identical to earlier
	// releases.
	Batch model.BatchConfig

	// memo is the run's measurement-point memo, installed by Run (newRun);
	// nil simulates every point.
	memo *memo
}

func (c Config) window(d time.Duration) time.Duration {
	if c.Scale <= 0 {
		return d
	}
	return time.Duration(float64(d) * c.Scale)
}

// writeArtifacts writes tb's observability artifacts, with report as the
// profile, into the Obs directory, noting each file written, or the
// failure, on rep. Without an Obs directory it writes nothing.
func (c Config) writeArtifacts(rep *Report, tb *snic.Testbed, report *profile.Report) {
	if c.Obs == "" {
		return
	}
	if err := tb.WriteObs(c.Obs, report, func(what, path string) {
		rep.Note("%s written to %s", what, path)
	}); err != nil {
		rep.Note("artifact export failed: %v", err)
	}
}

// Report is the outcome of one experiment, printable as a paper-style table.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
	// Failed marks a gating experiment (the scorecard) whose claims did not
	// all pass; cmd/lynxbench exits non-zero when any report sets it.
	Failed bool
}

// Row is one table line.
type Row struct {
	Name  string
	Cells []string
}

// AddRow appends a row, formatting each cell.
func (r *Report) AddRow(name string, cells ...any) {
	row := Row{Name: name}
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row.Cells = append(row.Cells, v)
		case float64:
			row.Cells = append(row.Cells, fmtFloat(v))
		case time.Duration:
			row.Cells = append(row.Cells, v.Round(100*time.Nanosecond).String())
		default:
			row.Cells = append(row.Cells, fmt.Sprint(v))
		}
	}
	r.Rows = append(r.Rows, row)
}

// Note appends a formatted footnote.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100000:
		return fmt.Sprintf("%.0fK", v/1000)
	case v >= 1000:
		return fmt.Sprintf("%.1fK", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns)+1)
	update := func(i int, s string) {
		if len(s) > widths[i] {
			widths[i] = len(s)
		}
	}
	update(0, "")
	for i, c := range r.Columns {
		update(i+1, c)
	}
	for _, row := range r.Rows {
		update(0, row.Name)
		for i, c := range row.Cells {
			if i+1 < len(widths) {
				update(i+1, c)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	b.WriteString(pad("", widths[0]))
	for i, c := range r.Columns {
		b.WriteString("  " + pad(c, widths[i+1]))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		b.WriteString(pad(row.Name, widths[0]))
		for i, c := range row.Cells {
			w := 0
			if i+1 < len(widths) {
				w = widths[i+1]
			}
			if len(c) > w {
				w = len(c)
			}
			b.WriteString("  " + pad(c, w))
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the report as (experiment, row, column, value) records for
// plotting pipelines — the same encoding cmd/lynxbench emits with -csv.
func (r *Report) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	for _, row := range r.Rows {
		for i, cell := range row.Cells {
			col := ""
			if i < len(r.Columns) {
				col = r.Columns[i]
			}
			w.Write([]string{r.ID, row.Name, col, cell})
		}
	}
	w.Flush()
	return b.String()
}

// Func runs one experiment.
type Func func(cfg Config) *Report

// entry pairs an experiment with its description for listings.
type entry struct {
	fn   Func
	desc string
}

var registry = map[string]entry{}

func register(id, desc string, fn Func) {
	registry[id] = entry{fn: fn, desc: desc}
}

// Outcome is the result of one Run: the reports in the order their ids were
// given, and how many measurement points the run simulated and how many
// requests for a point its memo served without simulating.
type Outcome struct {
	Reports   []*Report
	Simulated int
	FromMemo  int
}

// Run executes the named experiments in order. They share one run-scoped
// memo, so a measurement point several of them need (a Fig. 6 cell the
// scorecard and the sentinel also read, say) is simulated once; reports are
// byte-identical to running each experiment on its own.
func Run(cfg Config, ids ...string) (Outcome, error) {
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return Outcome{}, fmt.Errorf("experiments: unknown experiment %q (see List)", id)
		}
	}
	cfg = cfg.newRun()
	out := Outcome{Reports: make([]*Report, len(ids))}
	for i, id := range ids {
		out.Reports[i] = registry[id].fn(cfg)
	}
	out.Simulated, out.FromMemo = cfg.memo.simulated, cfg.memo.fromMemo
	return out, nil
}

// List returns all experiment IDs with descriptions, sorted.
func List() []string {
	var out []string
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(id string) string { return registry[id].desc }

// ---------------------------------------------------------------------------
// Shared deployment helpers

// env is the standard testbed: one GPU server with a BlueField, two client
// hosts (the paper uses 2 client and 4 server machines). It is a view over
// its testbed, which owns the checker, the observability plane (node 0,
// armed lazily by arm: always when cfg.Top is set, otherwise by profiling
// experiments) and the load path.
type env struct {
	cfg     Config
	params  model.Params
	tb      *snic.Testbed
	server  *snic.Machine
	bf      *snic.BlueField
	gpu     *accel.GPU
	clients []*netstack.Host
}

func newEnv(cfg Config) *env {
	p := model.Default()
	return newEnvWith(cfg, &p)
}

// newEnvWith builds the env on p, with the run-wide batching (lynxbench
// -batch) applied unless p pins its own.
func newEnvWith(cfg Config, p *model.Params) *env {
	tb := cluster.Deploy(cfg.deployment(cluster.Config{Params: p.WithBatch(cfg.Batch)}))
	cfg.fold(tb)
	server := tb.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", accel.K40m, false, "server1")
	e := &env{
		cfg: cfg, params: *tb.Params, tb: tb, server: server, bf: bf, gpu: gpu,
		clients: []*netstack.Host{tb.AddClient("client1"), tb.AddClient("client2")},
	}
	if cfg.Top != nil {
		e.arm(1 << 14)
	}
	return e
}

// deployment fills rc with the conventions every experiment testbed
// follows: the seed is Seed+1, the run's fault plan applies, and with
// invariants armed the testbed gets a fresh checker, which fold hands to
// the run's aggregate.
func (c Config) deployment(rc cluster.Config) cluster.Config {
	rc.Seed, rc.Faults = c.Seed+1, c.Faults
	if c.Invariants.Enabled() {
		rc.Check = check.New()
	}
	return rc
}

// fold merges tb's invariant report into the run's aggregate when tb shuts
// down (each sweep point owns its testbed, whose own shutdown hook
// finalizes the checker first).
func (c Config) fold(tb *snic.Testbed) {
	if ck := tb.Check; ck != nil {
		tb.Sim.OnShutdown(func() { c.Invariants.Add(ck.Finalize()) })
	}
}

// rack builds a KV rack of the shape rc gives on the experiment testbed
// conventions (deployment); nil Params are an unbatched model.Default copy.
// A 1-node, RF=1 rack is the single-server Lynx KV service.
func (c Config) rack(rc cluster.Config) *cluster.Rack {
	r, err := cluster.Build(c.deployment(rc))
	if err != nil {
		panic(err)
	}
	c.fold(r.TB)
	return r
}

// arm arms the env's observability plane once, with a span table of spanCap
// entries. When the config carries a TopCollector, the testbed's shutdown
// folds this env's slowest spans into it (every experiment shuts its
// testbeds down).
func (e *env) arm(spanCap int) *profile.Profile {
	if p := e.tb.Plane(0); p != nil {
		return p
	}
	k := 16
	if e.cfg.Top != nil && e.cfg.Top.K() > k {
		k = e.cfg.Top.K()
	}
	p := e.tb.Arm(0, profile.Options{SpanCap: spanCap, TopK: k})
	if top := e.cfg.Top; top != nil {
		rec := p.Recorder()
		e.tb.Sim.OnShutdown(func() { top.Add(rec.Top()) })
	}
	return p
}

// observe starts the plane's monitor on rt and, with an Obs directory,
// arms the postmortem dump there.
func (e *env) observe(rt *core.Runtime) {
	e.tb.Monitor(0, rt)
	if e.cfg.Obs != "" {
		e.tb.ArmPostmortem(e.cfg.Obs)
	}
}

// platform names used across experiments.
const (
	platHostCentric = "Host-centric"
	platLynx1Xeon   = "Lynx 1 Xeon core"
	platLynx6Xeon   = "Lynx 6 Xeon cores"
	platLynxBF      = "Lynx BlueField"
)

// lynxPlatform builds the requested Lynx platform in this env. An armed
// observability plane (arm) is threaded into the platform so server-side
// events and stamps land in the env's plane.
func (e *env) lynxPlatform(name string) core.Platform {
	var p core.Platform
	switch name {
	case platLynx1Xeon:
		p = e.server.HostPlatform(1, true)
	case platLynx6Xeon:
		p = e.server.HostPlatform(6, true)
	case platLynxBF:
		p = e.bf.Platform(7)
	default:
		panic("experiments: not a Lynx platform: " + name)
	}
	return e.tb.Platform(0, p)
}

// echoDeployment stands up a Lynx GPU echo/delay service: nQueues server
// mqueues, one persistent threadblock per queue, each emulating request
// processing of the given duration (the paper's microbenchmark server,
// §6.2). Returns the service address.
func (e *env) echoDeployment(plat core.Platform, nQueues int, compute time.Duration, slotSize int) (netstack.Addr, *core.Runtime) {
	rt := core.NewRuntime(plat)
	mqCfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: slotSize}
	h, err := rt.Register(e.gpu, mqCfg, nQueues)
	if err != nil {
		panic(err)
	}
	svc, err := rt.AddService(core.UDP, 7000, nil, nQueues, h)
	if err != nil {
		panic(err)
	}
	if err := e.gpu.Serve(e.tb.Sim, h.AccelQueues(), 0, compute, nil); err != nil {
		panic(err)
	}
	if err := rt.Start(); err != nil {
		panic(err)
	}
	return svc.Addr(), rt
}

// measure drives a workload from the env's clients on the testbed's load
// path and returns the result.
func (e *env) measure(wcfg workload.Config) workload.Result {
	return e.tb.Measure(wcfg, e.clients...)
}

// openLoopRate offers rate req/s of 64-byte UDP to target from 8 open-loop
// clients for window, after a quarter-window warmup, and returns how fast
// count advanced over the window. It shuts the testbed down.
func (e *env) openLoopRate(target netstack.Addr, rate float64, window time.Duration, count func() uint64) float64 {
	workload.New(e.tb.Sim, workload.Config{
		Proto: workload.UDP, Target: target, Payload: 64,
		Clients: 8, RatePerSec: rate, Duration: window, Warmup: window / 4,
	}, e.clients...).Run()
	var atWarmup uint64
	e.tb.Sim.After(window/4, func() { atWarmup = count() })
	e.tb.Sim.RunUntil(e.tb.Sim.Now().Add(window + window/4))
	total := count()
	e.tb.Sim.Shutdown()
	return float64(total-atWarmup) / window.Seconds()
}

// p99Ratio is a's p99 latency over b's.
func p99Ratio(a, b workload.Result) float64 {
	return speedup(float64(a.Hist.P99()), float64(b.Hist.P99()))
}

func speedup(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
