package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"lynx/internal/metrics"
	"lynx/internal/sim"
)

// stampAll walks one span through the full service path with 1µs per hop.
func stampAll(t *SpanTable, id uint64, base sim.Time) {
	t.Begin(id, base)
	at := base
	for st := StageSnicRecv; st <= StageForward; st++ {
		at = at.Add(time.Microsecond)
		t.Stamp(id, st, at)
	}
	t.Close(id, SpanDone, at.Add(time.Microsecond))
}

func TestSpanLifecycle(t *testing.T) {
	tab := NewSpanTable(64)
	stampAll(tab, 7, 100)
	sp, ok := tab.Span(7)
	if !ok {
		t.Fatal("span 7 not retained")
	}
	if sp.Status != SpanDone {
		t.Fatalf("status = %v, want done", sp.Status)
	}
	// Stage timestamps must be monotone along the path.
	prev := sim.Time(-1)
	for st := StageClientSend; st <= StageClientRecv; st++ {
		at, ok := sp.At(st)
		if !ok {
			t.Fatalf("stage %v unset", st)
		}
		if at < prev {
			t.Fatalf("stage %v at %v precedes %v", st, at, prev)
		}
		prev = at
	}
	if tab.Begun() != 1 || tab.Closed() != 1 || tab.Evicted() != 0 {
		t.Fatalf("counters begun=%d closed=%d evicted=%d", tab.Begun(), tab.Closed(), tab.Evicted())
	}
	// The five phases telescope to the end-to-end latency exactly.
	var sum time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		sum += tab.PhaseHist(p).Sum()
	}
	if e2e := tab.EndToEnd().Sum(); sum != e2e {
		t.Fatalf("phase sum %v != end-to-end %v", sum, e2e)
	}
}

func TestSpanFirstWriteWins(t *testing.T) {
	tab := NewSpanTable(64)
	tab.Begin(3, 10)
	tab.Stamp(3, StageSnicRecv, 20)
	tab.Stamp(3, StageSnicRecv, 50) // a retransmitted duplicate arrives later
	sp, _ := tab.Span(3)
	if at, _ := sp.At(StageSnicRecv); at != 20 {
		t.Fatalf("snic-recv = %v, want first write 20", at)
	}
	tab.SetQueue(3, 2)
	tab.SetQueue(3, 5)
	if sp, _ = tab.Span(3); sp.Queue != 2 {
		t.Fatalf("queue = %d, want first write 2", sp.Queue)
	}
	// Re-beginning a live span must not reset its stamps.
	tab.Begin(3, 40)
	if sp, _ = tab.Span(3); sp.stamps[StageClientSend] != 10 {
		t.Fatalf("client-send moved to %v on duplicate Begin", sp.stamps[StageClientSend])
	}
}

func TestSpanCloseExactlyOnce(t *testing.T) {
	tab := NewSpanTable(64)
	tab.Begin(9, 10)
	tab.Close(9, SpanDropped, 30)
	// A stale response (or a second drop on retry) must not reopen/reclose.
	tab.Close(9, SpanDone, 90)
	sp, _ := tab.Span(9)
	if sp.Status != SpanDropped {
		t.Fatalf("status = %v, want the first close (dropped)", sp.Status)
	}
	if tab.Closed() != 1 {
		t.Fatalf("closed = %d, want 1", tab.Closed())
	}
	// Stamps after close are ignored.
	tab.Stamp(9, StageDrain, 95)
	if sp, _ = tab.Span(9); sp.stamps[StageDrain] != -1 {
		t.Fatal("stamp landed on a closed span")
	}
	// Dropped spans must not enter the latency decomposition.
	if n := tab.EndToEnd().Count(); n != 0 {
		t.Fatalf("end-to-end count = %d, want 0", n)
	}
}

func TestSpanRingWraparound(t *testing.T) {
	tab := NewSpanTable(8)
	tab.Begin(1, 10) // stays open
	tab.Begin(9, 20) // same slot (9 % 8 == 1): evicts the open span 1
	if tab.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", tab.Evicted())
	}
	if _, ok := tab.Span(1); ok {
		t.Fatal("span 1 still visible after eviction")
	}
	if _, ok := tab.Span(9); !ok {
		t.Fatal("span 9 missing after taking the slot")
	}
	// Overwriting a closed span is not an eviction.
	tab.Close(9, SpanDone, 30)
	tab.Begin(17, 40)
	if tab.Evicted() != 1 {
		t.Fatalf("evicted = %d after overwriting a closed span, want 1", tab.Evicted())
	}
	// Late stamps for the evicted ID miss (ID mismatch) rather than corrupt.
	tab.Stamp(1, StageDrain, 50)
	if sp, _ := tab.Span(17); sp.stamps[StageDrain] != -1 {
		t.Fatal("stale stamp corrupted the new occupant")
	}
}

func TestSpanDisabledAndNoAlloc(t *testing.T) {
	var tab *SpanTable
	// Every method must be a no-op on a nil table.
	tab.Begin(1, 0)
	tab.Stamp(1, StageSnicRecv, 0)
	tab.SetQueue(1, 0)
	tab.Close(1, SpanDone, 0)
	if tab.Begun() != 0 || tab.Closed() != 0 || tab.Evicted() != 0 || tab.Cap() != 0 {
		t.Fatal("nil table counted something")
	}
	if s := tab.Spans(); s != nil {
		t.Fatal("nil table returned spans")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tab.Begin(1, 0)
		tab.Stamp(1, StageSnicRecv, 0)
		tab.Close(1, SpanDone, 0)
	}); allocs != 0 {
		t.Fatalf("nil table allocated %v/op", allocs)
	}
	// The enabled record path is alloc-free too.
	live := NewSpanTable(64)
	var id uint64
	if allocs := testing.AllocsPerRun(100, func() {
		id++
		stampAll(live, id, sim.Time(id)*1000)
	}); allocs != 0 {
		t.Fatalf("record path allocated %v/op", allocs)
	}
}

func TestSpanID(t *testing.T) {
	if id := SpanID([]byte{1, 2, 3}); id != 0 {
		t.Fatalf("short payload id = %d, want 0", id)
	}
	if id := SpanID(nil); id != 0 {
		t.Fatalf("nil payload id = %d, want 0", id)
	}
	b := []byte{0x2a, 0, 0, 0, 0, 0, 0, 0, 0xff}
	if id := SpanID(b); id != 42 {
		t.Fatalf("id = %d, want 42 (little-endian prefix)", id)
	}
}

func TestExportJSONValidAndDeterministic(t *testing.T) {
	tab := NewSpanTable(64)
	stampAll(tab, 5, 100)
	stampAll(tab, 6, 5000)
	tab.SetQueue(6, 1)
	tr := New(16)
	tr.Emit(150, Dispatch, 0, 3)
	s := metrics.NewSeries("mq/inflight", 8)
	s.Add(time.Microsecond, 2)
	s.Add(2*time.Microsecond, 1)
	ex := Export{Spans: tab, Events: tr, Series: []*metrics.Series{s}}

	var a, b bytes.Buffer
	if err := WriteJSON(&a, ex); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, ex); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export is not byte-identical across writes")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	sawX, sawC, sawI := false, false, false
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %v missing %q", ev, field)
			}
		}
		switch ev["ph"] {
		case "X":
			sawX = true
		case "C":
			sawC = true
		case "i":
			sawI = true
		}
	}
	if !sawX || !sawC || !sawI {
		t.Fatalf("missing event kinds: X=%v C=%v i=%v", sawX, sawC, sawI)
	}
}

func TestExportEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Export{}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
}
