package profile

import (
	"io"
	"os"
	"sync"
	"time"

	"lynx/internal/check"
	"lynx/internal/core"
	"lynx/internal/metrics"
	"lynx/internal/trace"
)

// Options sizes a Profile. Zero values pick defaults.
type Options struct {
	// TracerCap bounds the runtime event ring (default 4096 events).
	TracerCap int
	// SpanCap bounds the span table ring (default 1<<14 spans).
	SpanCap int
	// TopK bounds the flight recorder's slowest-span heap (default 16).
	TopK int
	// RingCap bounds the flight recorder's recency ring (default 64).
	RingCap int
	// Interval is the monitor's sampling period (default 50µs).
	Interval time.Duration
}

// Profile is one node's observability plane: the runtime event ring, the
// span table, the flight recorder attached to it, and the metrics registry
// its monitor samples into. A single server and every rack member carry one
// each, created by New, so both export through the same timeline and report.
type Profile struct {
	events   *trace.Tracer
	spans    *trace.SpanTable
	rec      *Recorder
	reg      *metrics.Registry
	interval time.Duration

	mu      sync.Mutex
	trigger string
}

// New creates a profile with a fresh event ring, span table (its invariants
// registered on ck, which may be nil), flight recorder attached to the
// table, and metrics registry.
func New(opts Options, ck *check.Checker) *Profile {
	tcap, scap, iv := opts.TracerCap, opts.SpanCap, opts.Interval
	if tcap <= 0 {
		tcap = 4096
	}
	if scap <= 0 {
		scap = 1 << 14
	}
	if iv <= 0 {
		iv = 50 * time.Microsecond
	}
	p := &Profile{
		events:   trace.New(tcap),
		spans:    trace.NewSpanTable(scap),
		rec:      NewRecorder(opts.TopK, opts.RingCap),
		reg:      metrics.NewRegistry(),
		interval: iv,
	}
	p.spans.RegisterInvariants(ck)
	p.rec.Attach(p.spans)
	return p
}

// Platform wires the plane into plat: the event ring and span table fill in
// whichever of Tracer/Spans plat does not already carry. Nil-safe: a nil
// profile returns plat unchanged.
func (p *Profile) Platform(plat core.Platform) core.Platform {
	if p == nil {
		return plat
	}
	if plat.Tracer == nil {
		plat.Tracer = p.events
	}
	if plat.Spans == nil {
		plat.Spans = p.spans
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
	if p == nil {
		return trace.Export{Name: name}
	}
	return trace.Export{Name: name, Spans: p.spans, Events: p.events, Series: p.reg.SeriesList()}
}

// Events returns the runtime event ring.
func (p *Profile) Events() *trace.Tracer {
	if p == nil {
		return nil
	}
	return p.events
}

// Spans returns the span table (give this to the workload config).
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

// Files names the artifacts of one observability run. Every deployment, one
// node or a rack, writes them through Write; an empty path skips its file.
type Files struct {
	// Trace receives the Chrome trace-event timeline of every node.
	Trace string
	// Metrics receives the metrics registry dump.
	Metrics string
	// Profile receives the attribution report.
	Profile string
}

// Write writes each named artifact in order — the timeline of nodes, reg's
// dump, report's JSON — and calls done with a description and the path of
// each file written. It stops at the first error.
func (f Files) Write(nodes []trace.Export, reg *metrics.Registry, report *Report, done func(what, path string)) error {
	for _, a := range []struct {
		what, path string
		write      func(io.Writer) error
	}{
		{"trace timeline", f.Trace, func(w io.Writer) error { return trace.WriteJSON(w, nodes...) }},
		{"metrics", f.Metrics, reg.Dump},
		{"profile report", f.Profile, report.WriteJSON},
	} {
		if a.path == "" {
			continue
		}
		if err := writeFile(a.path, a.write); err != nil {
			return err
		}
		done(a.what, a.path)
	}
	return nil
}

// writeFile creates path and streams one document into it.
func writeFile(path string, write func(io.Writer) error) error {
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
