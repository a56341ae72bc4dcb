package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"lynx/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, Recv, 1, 2)
	if tr.Total() != 0 || tr.Count(Recv) != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
	if tr.Summary() != "trace disabled" {
		t.Fatalf("summary %q", tr.Summary())
	}
}

func TestRingRetainsMostRecent(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(sim.Time(i), Recv, uint64(i), 0)
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Arg0 != uint64(6+i) {
			t.Fatalf("events %v not the most recent in order", evs)
		}
	}
	tail := tr.Tail(2)
	if len(tail) != 2 || tail[1].Arg0 != 9 {
		t.Fatalf("tail %v", tail)
	}
	if got := tr.Tail(100); len(got) != 4 {
		t.Fatalf("oversized tail %d", len(got))
	}
}

func TestCountsAndSummary(t *testing.T) {
	tr := New(8)
	tr.Emit(0, Recv, 0, 0)
	tr.Emit(0, Recv, 0, 0)
	tr.Emit(0, Drop, 0, 0)
	if tr.Count(Recv) != 2 || tr.Count(Drop) != 1 || tr.Count(Forward) != 0 {
		t.Fatal("counts wrong")
	}
	s := tr.Summary()
	if !strings.Contains(s, "recv=2") || !strings.Contains(s, "drop=1") {
		t.Fatalf("summary %q", s)
	}
	if New(1).Summary() != "no events" {
		t.Fatal("empty summary wrong")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind")
	}
	ev := Event{At: 1500, Kind: Dispatch, Arg0: 3, Arg1: 7}
	if !strings.Contains(ev.String(), "dispatch") {
		t.Fatalf("event string %q", ev.String())
	}
}

// Property: for any emit sequence, Events() is chronologically ordered and
// holds min(total, capacity) entries.
func TestRingOrderProperty(t *testing.T) {
	prop := func(n uint8, capacity uint8) bool {
		c := int(capacity%32) + 1
		tr := New(c)
		for i := 0; i < int(n); i++ {
			tr.Emit(sim.Time(i), Recv, uint64(i), 0)
		}
		evs := tr.Events()
		want := int(n)
		if want > c {
			want = c
		}
		if len(evs) != want {
			return false
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Arg0 != evs[i-1].Arg0+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Counts are totals over the whole run: wrapping the ring evicts events but
// never the counters, including the robustness kinds (PeerKill, Failover).
func TestCountsSurviveWraparound(t *testing.T) {
	tr := New(4)
	for i := 0; i < 50; i++ {
		tr.Emit(sim.Time(i), Drop, uint64(i), 0)
	}
	tr.Emit(50, PeerKill, 1, 2)
	tr.Emit(51, Failover, 3, 0)
	if tr.Count(Drop) != 50 || tr.Count(PeerKill) != 1 || tr.Count(Failover) != 1 {
		t.Fatalf("counts wrong after wraparound: %s", tr.Summary())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// The ring holds only the most recent events, still in order.
	if evs[2].Kind != PeerKill || evs[3].Kind != Failover {
		t.Fatalf("tail events %v", evs)
	}
	if PeerKill.String() != "peer-kill" || Failover.String() != "failover" {
		t.Fatalf("kind strings: %q %q", PeerKill.String(), Failover.String())
	}
	s := tr.Summary()
	if !strings.Contains(s, "peer-kill=1") || !strings.Contains(s, "failover=1") {
		t.Fatalf("summary %q", s)
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := New(0)
	for i := 0; i < 2000; i++ {
		tr.Emit(0, Recv, 0, 0)
	}
	if len(tr.Events()) != 1024 {
		t.Fatalf("default capacity retained %d", len(tr.Events()))
	}
}
