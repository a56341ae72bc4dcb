package profile

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lynx/internal/check"
	"lynx/internal/core"
	"lynx/internal/metrics"
	"lynx/internal/trace"
)

// Options sizes a Profile. Zero values pick defaults.
type Options struct {
	// SpanCap bounds the span table ring (default 1<<14 spans).
	SpanCap int
	// TopK bounds the flight recorder's slowest-span heap (default 16).
	TopK int
	// Interval is the monitor's sampling period (default 50µs).
	Interval time.Duration
}

// Profile is one node's observability plane: the span table (which carries
// the runtime event ring), the flight recorder attached to it, and the
// metrics registry its monitor samples into. A single server and every rack
// member carry one each, created by New, so both export through the same
// timeline and report.
type Profile struct {
	spans    *trace.SpanTable
	rec      *Recorder
	reg      *metrics.Registry
	interval time.Duration

	mu      sync.Mutex
	trigger string
}

// New creates a profile with a fresh span table (its invariants registered
// on ck, which may be nil), flight recorder attached to the table, and
// metrics registry.
func New(opts Options, ck *check.Checker) *Profile {
	scap, iv := opts.SpanCap, opts.Interval
	if scap <= 0 {
		scap = 1 << 14
	}
	if iv <= 0 {
		iv = 50 * time.Microsecond
	}
	p := &Profile{
		spans:    trace.NewSpanTable(scap),
		rec:      NewRecorder(opts.TopK, 0),
		reg:      metrics.NewRegistry(),
		interval: iv,
	}
	p.spans.RegisterInvariants(ck)
	p.rec.Attach(p.spans)
	return p
}

// Platform wires the plane into plat: its span table, unless plat already
// carries one. Nil-safe: a nil profile returns plat unchanged.
func (p *Profile) Platform(plat core.Platform) core.Platform {
	if plat.Spans == nil {
		plat.Spans = p.Spans()
	}
	return plat
}

// Monitor starts rt's utilization monitor, sampling every Interval into the
// profile's registry. Call it after rt.Start. Nil-safe.
func (p *Profile) Monitor(rt *core.Runtime) {
	if p == nil {
		return
	}
	rt.StartMonitor(p.interval, p.reg)
}

// Export renders the plane as one named node of a Chrome trace timeline.
// Nil-safe: a nil profile exports a node with no spans, events or series.
func (p *Profile) Export(name string) trace.Export {
	return trace.Export{Name: name, Spans: p.Spans(), Series: p.Registry().SeriesList()}
}

// Spans returns the span table, the node's runtime record (give this to the
// workload config).
func (p *Profile) Spans() *trace.SpanTable {
	if p == nil {
		return nil
	}
	return p.spans
}

// Recorder returns the flight recorder.
func (p *Profile) Recorder() *Recorder {
	if p == nil {
		return nil
	}
	return p.rec
}

// Registry returns the metrics registry.
func (p *Profile) Registry() *metrics.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Report builds the attribution report from the profile's current state.
// Nil-safe: a nil profile reports empty.
func (p *Profile) Report() *Report {
	if p == nil {
		return &Report{}
	}
	r := Build(p.spans, p.rec, p.reg)
	p.mu.Lock()
	r.Trigger = p.trigger
	p.mu.Unlock()
	return r
}

// WriteFile dumps the current report as JSON to path. Nil-safe: a nil
// profile writes nothing and reports success.
func (p *Profile) WriteFile(path string) error {
	if p == nil {
		return nil
	}
	return writeFile(path, p.Report().WriteJSON)
}

// ArmPostmortem hooks the checker so the first invariant violation dumps a
// flight-recorder report to path, with Trigger set to the violation. The dump
// happens at violation time, so the report captures the state that tripped
// the invariant rather than whatever the run drained down to. Nil-safe.
func (p *Profile) ArmPostmortem(ck *check.Checker, path string) {
	if p == nil || !ck.Enabled() || path == "" {
		return
	}
	ck.SetOnViolation(func(v check.Violation) {
		p.mu.Lock()
		p.trigger = v.String()
		p.mu.Unlock()
		// Best-effort: a postmortem dump failing must not take down the run.
		_ = p.WriteFile(path)
	})
}

// The fixed artifact names of an observability directory (the -obs flag).
const (
	// TraceFile receives the Chrome trace-event timeline of every node.
	TraceFile = "trace.json"
	// MetricsFile receives the metrics rollup.
	MetricsFile = "metrics.json"
	// ProfileFile receives node 0's attribution report.
	ProfileFile = "profile.json"
	// PostmortemFile receives the report dumped when an invariant fires.
	PostmortemFile = ProfileFile + ".postmortem"
)

// WriteDir writes one observability run's artifacts into directory dir,
// creating it if needed, under the fixed names — the timeline of nodes, reg's dump,
// report's JSON — and calls done with a description and the path of each
// file written. It stops at the first error.
func WriteDir(dir string, nodes []trace.Export, reg *metrics.Registry, report *Report, done func(what, path string)) error {
	for _, a := range []struct {
		what, name string
		write      func(io.Writer) error
	}{
		{"trace timeline", TraceFile, func(w io.Writer) error { return trace.WriteJSON(w, nodes...) }},
		{"metrics", MetricsFile, reg.Dump},
		{"profile report", ProfileFile, report.WriteJSON},
	} {
		path := filepath.Join(dir, a.name)
		if err := writeFile(path, a.write); err != nil {
			return err
		}
		done(a.what, path)
	}
	return nil
}

// writeFile creates path, and any missing directory above it, and streams
// one document into it.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
