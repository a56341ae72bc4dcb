package profile

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lynx/internal/check"
	"lynx/internal/core"
	"lynx/internal/metrics"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// closeSpan drives one complete span of the given end-to-end latency (ns)
// through the table, with a fixed fraction of the queueing phase as wait.
func closeSpan(tb *trace.SpanTable, id uint64, lat sim.Time) {
	tb.Begin(id, 0)
	tb.Stamp(id, trace.StageSnicRecv, lat/8)
	tb.Stamp(id, trace.StageDispatch, lat/4)
	tb.Stamp(id, trace.StagePushed, lat/3)
	tb.Stamp(id, trace.StageAccelRecv, lat/2)
	tb.Stamp(id, trace.StageAccelSent, lat*3/4)
	tb.Stamp(id, trace.StageDrain, lat*4/5)
	tb.Stamp(id, trace.StageForward, lat*9/10)
	tb.AddWait(id, trace.PhaseQueueing, time.Duration(lat/8))
	tb.Close(id, trace.SpanDone, lat)
}

func TestRecorderTopAndRecent(t *testing.T) {
	tb := trace.NewSpanTable(64)
	rec := NewRecorder(3, 4)
	rec.Attach(tb)

	lats := []sim.Time{5000, 1000, 9000, 3000, 7000, 2000}
	for i, lat := range lats {
		closeSpan(tb, uint64(i+1), lat)
	}
	if rec.Observed() != uint64(len(lats)) {
		t.Fatalf("observed = %d, want %d", rec.Observed(), len(lats))
	}

	top := rec.Top()
	if len(top) != 3 {
		t.Fatalf("top has %d entries, want 3", len(top))
	}
	wantIDs := []uint64{3, 5, 1} // latencies 9000, 7000, 5000
	for i, want := range wantIDs {
		if top[i].Span.ID != want {
			t.Errorf("top[%d] = span %d (%v), want span %d", i, top[i].Span.ID, top[i].Latency, want)
		}
	}
	if top[0].Latency != 9*time.Microsecond {
		t.Errorf("slowest latency = %v, want 9µs", top[0].Latency)
	}

	recent := rec.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent has %d entries, want ring cap 4", len(recent))
	}
	for i, want := range []uint64{3, 4, 5, 6} { // chronological, last 4
		if recent[i].Span.ID != want {
			t.Errorf("recent[%d] = span %d, want %d", i, recent[i].Span.ID, want)
		}
	}
}

// TestRecorderDeterministicTies: equal latencies break on span ID, so two
// identically fed recorders agree exactly.
func TestRecorderDeterministicTies(t *testing.T) {
	build := func() []Entry {
		tb := trace.NewSpanTable(64)
		rec := NewRecorder(4, 8)
		rec.Attach(tb)
		for id := uint64(1); id <= 10; id++ {
			closeSpan(tb, id, 4000) // all tie
		}
		return rec.Top()
	}
	a, b := build(), build()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("top sizes %d/%d, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i].Span.ID != b[i].Span.ID {
			t.Fatalf("tie order diverged at %d: %d vs %d", i, a[i].Span.ID, b[i].Span.ID)
		}
	}
}

// TestRecorderIgnoresIncomplete: spans without a full trajectory never reach
// the recorder (the table only notifies on complete SpanDone closes).
func TestRecorderIgnoresIncomplete(t *testing.T) {
	tb := trace.NewSpanTable(64)
	rec := NewRecorder(4, 8)
	rec.Attach(tb)
	tb.Begin(1, 0)
	tb.Close(1, trace.SpanDropped, 100)
	tb.Begin(2, 0)
	tb.Close(2, trace.SpanDone, 100) // done but no service stages
	if rec.Observed() != 0 {
		t.Fatalf("recorder observed %d incomplete spans", rec.Observed())
	}
}

// monitorFixture populates a registry with the series the bottleneck ranking
// reads, shaped so the dispatcher dominates.
func monitorFixture(reg *metrics.Registry) {
	add := func(name string, vals ...float64) {
		s := reg.NewSeries(name, 64)
		for i, v := range vals {
			s.Add(time.Duration(i)*time.Millisecond, v)
		}
	}
	add("snic/dispatch-util", 0.9, 0.95, 0.97)
	add("snic/core-util", 0.35, 0.4, 0.38)
	add("snic/backlog", 10, 60, 120) // growing
	add("net/wire-util", 0.05, 0.05, 0.05)
	add("accel/gpu0/sm-util", 0.2, 0.2, 0.2)
	add("mq/gpu0/inflight", 4, 4, 4)
	add("pcie/gpu0/link-util", 0.02, 0.02, 0.02)
}

func TestBuildBottleneckRanking(t *testing.T) {
	tb := trace.NewSpanTable(64)
	rec := NewRecorder(4, 8)
	rec.Attach(tb)
	for id := uint64(1); id <= 20; id++ {
		closeSpan(tb, id, sim.Time(1000*id))
	}
	reg := metrics.NewRegistry()
	monitorFixture(reg)

	rep := Build(tb, rec, reg)
	if rep.SpansClosed != 20 || rep.EndToEnd.Count != 20 {
		t.Fatalf("spans closed %d / e2e count %d, want 20", rep.SpansClosed, rep.EndToEnd.Count)
	}
	if len(rep.Bottlenecks) != 5 {
		t.Fatalf("bottlenecks = %d, want 5 (dispatcher, snic-cores, nic-wire, accel, pcie)", len(rep.Bottlenecks))
	}
	if rep.Bottlenecks[0].Resource != "dispatcher" {
		t.Fatalf("top bottleneck = %q, want dispatcher\n%s", rep.Bottlenecks[0].Resource, rep.BottleneckSummary())
	}
	if rep.Rank("dispatcher") != 1 {
		t.Errorf("Rank(dispatcher) = %d, want 1", rep.Rank("dispatcher"))
	}
	if rep.Rank("no-such-resource") != 0 {
		t.Errorf("Rank of unknown resource = %d, want 0", rep.Rank("no-such-resource"))
	}
	for i := 1; i < len(rep.Bottlenecks); i++ {
		if rep.Bottlenecks[i].Score > rep.Bottlenecks[i-1].Score {
			t.Fatalf("scores not descending at %d:\n%s", i, rep.BottleneckSummary())
		}
	}
	if s := rep.Bottlenecks[0].String(); !strings.Contains(s, "growing") {
		t.Errorf("dispatcher line %q should report a growing queue", s)
	}

	// Per-phase identity survives aggregation into the report.
	for _, ps := range rep.Phases {
		if ps.Total.Count != ps.Wait.Count || ps.Total.Count != ps.Service.Count {
			t.Fatalf("phase %s count mismatch", ps.Phase)
		}
	}
}

// TestBuildEmptyRegistry: with no monitor series, the report still builds
// (no bottlenecks, phases from the span table alone).
func TestBuildEmptyRegistry(t *testing.T) {
	tb := trace.NewSpanTable(8)
	closeSpan(tb, 1, 1000)
	rep := Build(tb, NewRecorder(2, 2), metrics.NewRegistry())
	if len(rep.Bottlenecks) != 0 {
		t.Fatalf("bottlenecks from empty registry: %v", rep.Bottlenecks)
	}
	if rep.SpansClosed != 1 {
		t.Fatalf("spans closed = %d", rep.SpansClosed)
	}
	// Fully nil inputs also build.
	if rep := Build(nil, nil, nil); rep == nil || rep.SpansClosed != 0 {
		t.Fatal("nil inputs should build an empty report")
	}
}

// TestReportJSONDeterministic: identical inputs serialize byte-identically,
// and the JSON carries the documented top-level schema.
func TestReportJSONDeterministic(t *testing.T) {
	render := func() []byte {
		tb := trace.NewSpanTable(64)
		rec := NewRecorder(4, 8)
		rec.Attach(tb)
		for id := uint64(1); id <= 10; id++ {
			closeSpan(tb, id, sim.Time(500*id))
		}
		reg := metrics.NewRegistry()
		monitorFixture(reg)
		var buf bytes.Buffer
		if err := Build(tb, rec, reg).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different JSON")
	}
	var m map[string]any
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"spans_begun", "spans_closed", "end_to_end", "phases", "bottlenecks", "top", "recent"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
}

// TestProfileBundle: New sizes every piece of the plane from Options,
// registers the span invariants on the checker, and every accessor is
// nil-safe.
func TestProfileBundle(t *testing.T) {
	ck := check.New()
	p := New(Options{TracerCap: 8, SpanCap: 32, TopK: 2, RingCap: 4}, ck)
	if p.Spans().Cap() != 32 || p.Recorder().TopK() != 2 {
		t.Fatalf("span cap %d, top-k %d; want 32, 2", p.Spans().Cap(), p.Recorder().TopK())
	}
	if p.Events() == nil || p.Registry() == nil {
		t.Fatal("plane missing its event ring or registry")
	}
	for i := 0; i < 10; i++ {
		p.Events().Emit(sim.Time(i), trace.Recv, 0, 0)
	}
	if n := len(p.Events().Events()); n != 8 {
		t.Errorf("event ring holds %d events, want TracerCap 8", n)
	}
	want := check.New()
	trace.NewSpanTable(1).RegisterInvariants(want)
	if got, w := ck.Snapshot().Finishers, want.Snapshot().Finishers; w == 0 || got != w {
		t.Errorf("New registered %d finishers on the checker, want the span table's %d", got, w)
	}
	plat := p.Platform(core.Platform{})
	if plat.Tracer != p.Events() || plat.Spans != p.Spans() {
		t.Error("Platform did not wire the plane into an empty platform")
	}
	own := trace.New(4)
	if plat := p.Platform(core.Platform{Tracer: own}); plat.Tracer != own || plat.Spans != p.Spans() {
		t.Error("Platform replaced a platform's own tracer")
	}
	if ex := p.Export("server1"); ex.Name != "server1" || ex.Spans != p.Spans() || ex.Events != p.Events() {
		t.Errorf("Export = %+v", ex)
	}
	closeSpan(p.Spans(), 1, 2000)
	rep := p.Report()
	if rep.SpansClosed != 1 {
		t.Fatalf("spans closed = %d", rep.SpansClosed)
	}
	if len(rep.Top) != 1 {
		t.Fatalf("flight recorder missed the span: %d", len(rep.Top))
	}

	var nilProf *Profile
	if nilProf.Spans() != nil || nilProf.Recorder() != nil || nilProf.Registry() != nil || nilProf.Events() != nil {
		t.Fatal("nil profile accessors must return nil")
	}
	if plat := nilProf.Platform(core.Platform{}); plat.Tracer != nil || plat.Spans != nil {
		t.Fatal("nil profile must leave the platform alone")
	}
	if ex := nilProf.Export("n"); ex.Name != "n" || ex.Spans != nil || ex.Events != nil || ex.Series != nil {
		t.Fatalf("nil profile export = %+v", ex)
	}
	nilProf.Monitor(nil)
	if rep := nilProf.Report(); rep == nil || rep.SpansClosed != 0 {
		t.Fatal("nil profile must report empty")
	}
	if err := nilProf.WriteFile(filepath.Join(t.TempDir(), "never.json")); err != nil {
		t.Fatalf("nil WriteFile: %v", err)
	}
}

// TestArmPostmortem: the first invariant violation dumps the report with the
// violation as trigger; later violations do not rewrite it.
func TestArmPostmortem(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "post.json")
	p := New(Options{SpanCap: 32}, nil)
	closeSpan(p.Spans(), 1, 2000)

	ck := check.New()
	p.ArmPostmortem(ck, path)
	ck.Failf("test.kind", "conservation off by %d", 3)
	closeSpan(p.Spans(), 2, 9000) // after the dump: must not appear in it
	ck.Failf("test.other", "second violation")

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("postmortem not written: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("postmortem not valid JSON: %v", err)
	}
	if !strings.Contains(rep.Trigger, "conservation off by 3") {
		t.Errorf("trigger = %q, want the first violation", rep.Trigger)
	}
	if rep.SpansClosed != 1 {
		t.Errorf("postmortem captured %d spans, want the state at violation time (1)", rep.SpansClosed)
	}
	// Live reports after the violation also carry the trigger.
	if live := p.Report(); !strings.Contains(live.Trigger, "conservation") {
		t.Errorf("live report trigger = %q", live.Trigger)
	}

	// Unarmed combinations are no-ops.
	var nilProf *Profile
	nilProf.ArmPostmortem(ck, path)
	p.ArmPostmortem(nil, path)
	p.ArmPostmortem(ck, "")
}

// TestFilesWrite: each named artifact is written as valid JSON and announced
// once; an empty path skips its file.
func TestFilesWrite(t *testing.T) {
	dir := t.TempDir()
	p := New(Options{SpanCap: 32}, nil)
	closeSpan(p.Spans(), 1, 2000)
	files := Files{Trace: filepath.Join(dir, "t.json"), Profile: filepath.Join(dir, "p.json")}
	var done []string
	err := files.Write([]trace.Export{p.Export("server1")}, p.Registry(), p.Report(), func(what, path string) {
		done = append(done, what+" "+filepath.Base(path))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(done, ", "); got != "trace timeline t.json, profile report p.json" {
		t.Errorf("announced %q", got)
	}
	for _, name := range []string{"t.json", "p.json"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(raw) {
			t.Errorf("%s is not valid JSON", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "m.json")); err == nil {
		t.Error("metrics file written without a path")
	}
	if err := (Files{Metrics: filepath.Join(dir, "no", "m.json")}).Write(nil, p.Registry(), nil, func(string, string) {}); err == nil {
		t.Error("unwritable path reported no error")
	}
}
