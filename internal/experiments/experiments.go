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
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/profile"
	"lynx/internal/snic"
	"lynx/internal/trace"
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
	// TraceJSON, when non-empty, makes instrumented experiments (breakdown,
	// attribution, replbreakdown) write a Chrome trace-event timeline — one
	// process-track block per node — to this path.
	TraceJSON string
	// Invariants, when non-nil, arms a runtime invariant checker on every
	// testbed the experiment builds; each sweep point finalizes its checker
	// at shutdown and merges the report here. Checked runs stay
	// bit-identical to unchecked ones.
	Invariants *check.Aggregate
	// MetricsJSON, when non-empty, makes instrumented experiments write
	// their deterministic metrics dump (stats and monitor series; a rack's
	// under "<node>/" prefixes) to this path.
	MetricsJSON string
	// ProfileJSON, when non-empty, makes instrumented experiments write the
	// tail-latency attribution report (a rack's from node 0) to this path;
	// with Invariants also armed, an invariant violation in breakdown or
	// attribution dumps a postmortem flight-recorder report to
	// ProfileJSON + ".postmortem".
	ProfileJSON string
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
}

func (c Config) window(d time.Duration) time.Duration {
	if c.Scale <= 0 {
		return d
	}
	return time.Duration(float64(d) * c.Scale)
}

// writeArtifacts writes the run's observability artifacts named by the
// config (-trace-json, -metrics-json, -profile-json), noting each file
// written, or the failure, on rep.
func (c Config) writeArtifacts(rep *Report, nodes []trace.Export, reg *metrics.Registry, report *profile.Report) {
	files := profile.Files{Trace: c.TraceJSON, Metrics: c.MetricsJSON, Profile: c.ProfileJSON}
	if err := files.Write(nodes, reg, report, func(what, path string) {
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

// Cell returns the named row/column value (testing convenience).
func (r *Report) Cell(rowName, col string) (string, bool) {
	ci := -1
	for i, c := range r.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, row := range r.Rows {
		if row.Name == rowName && ci < len(row.Cells) {
			return row.Cells[ci], true
		}
	}
	return "", false
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

// Run executes the named experiment.
func Run(id string, cfg Config) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (see List)", id)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	return e.fn(cfg), nil
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
// hosts (the paper uses 2 client and 4 server machines).
type env struct {
	cfg     Config
	params  model.Params
	tb      *snic.Testbed
	server  *snic.Machine
	bf      *snic.BlueField
	gpu     *accel.GPU
	clients []*netstack.Host
	check   *check.Checker
	// prof is the env's observability plane, armed lazily by arm (always
	// when cfg.Top is set, otherwise by profiling experiments).
	prof *profile.Profile
}

func newEnv(cfg Config) *env {
	p := model.Default()
	return newEnvWith(cfg, &p)
}

func newEnvWith(cfg Config, p *model.Params) *env {
	// A run-wide batching configuration (lynxbench -batch*) applies to every
	// testbed that does not pin its own; experiments sweeping batching set
	// p.Batch explicitly and win. Callers pass per-point Params copies, so
	// the write never leaks across sweep points.
	if !cfg.Batch.Unit() && p.Batch == (model.BatchConfig{}) {
		p.Batch = cfg.Batch
	}
	tb := snic.NewTestbedWith(cfg.Seed+1, p, cfg.Faults)
	var ck *check.Checker
	if cfg.Invariants.Enabled() {
		ck = check.New()
		tb.EnableInvariants(ck)
		// Each sweep point owns one env; its Shutdown finalizes the checker
		// (the EnableInvariants hook) and this hook folds the report into
		// the aggregate.
		tb.Sim.OnShutdown(func() { cfg.Invariants.Add(ck.Finalize()) })
	}
	server := tb.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", accel.K40m, false, "server1")
	e := &env{
		cfg: cfg, params: *p, tb: tb, server: server, bf: bf, gpu: gpu,
		clients: []*netstack.Host{tb.AddClient("client1"), tb.AddClient("client2")},
		check:   ck,
	}
	if cfg.Top != nil {
		e.arm(1 << 14)
	}
	return e
}

// arm arms the env's observability plane once, with a span table of spanCap
// entries. When the config carries a TopCollector, the testbed's shutdown
// folds this env's slowest spans into it (every experiment shuts its
// testbeds down).
func (e *env) arm(spanCap int) *profile.Profile {
	if e.prof != nil {
		return e.prof
	}
	k := 16
	if e.cfg.Top != nil && e.cfg.Top.K() > k {
		k = e.cfg.Top.K()
	}
	e.prof = profile.New(profile.Options{SpanCap: spanCap, TopK: k}, e.check)
	if top := e.cfg.Top; top != nil {
		rec := e.prof.Recorder()
		e.tb.Sim.OnShutdown(func() { top.Add(rec.Top()) })
	}
	return e.prof
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
	return e.prof.Platform(p)
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
	qs := h.AccelQueues()
	if err := e.gpu.LaunchPersistent(e.tb.Sim, nQueues, func(tb *accel.TB) {
		aq := qs[tb.Index()]
		for {
			m := aq.Recv(tb.Proc())
			if compute > 0 {
				tb.Compute(compute)
			}
			if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	}); err != nil {
		panic(err)
	}
	if err := rt.Start(); err != nil {
		panic(err)
	}
	return svc.Addr(), rt
}

// measure drives a workload and returns the result.
func (e *env) measure(wcfg workload.Config) workload.Result {
	if wcfg.Check == nil {
		wcfg.Check = e.check
	}
	if wcfg.Spans == nil {
		wcfg.Spans = e.prof.Spans()
	}
	g := workload.New(e.tb.Sim, wcfg, e.clients...)
	return workload.RunFor(e.tb.Sim, g)
}

// saturate runs a closed-loop workload sized to saturate the target and
// reports throughput.
func (e *env) saturate(target netstack.Addr, payload, clients int, window time.Duration) workload.Result {
	return e.measure(workload.Config{
		Proto: workload.UDP, Target: target, Payload: payload,
		Clients: clients, Duration: window, Warmup: window / 4,
	})
}

func defaultParams() model.Params { return model.Default() }

func speedup(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
