package sim

import (
	"testing"
	"time"
)

// Same-instant events are appended to the current instant's wheel bucket;
// their execution order must still be exactly global (at, seq) order,
// interleaved with events scheduled for the same instant from earlier
// instants.
func TestSameInstantFIFOOrder(t *testing.T) {
	s := New(Config{Seed: 1})
	var order []int
	rec := func(id int) func() { return func() { order = append(order, id) } }
	// From t=0, schedule two future events at t=1µs (seq 1 and 2).
	at := Time(time.Microsecond)
	s.At(at, rec(1))
	s.At(at, rec(2))
	// The first future event schedules more work at its own instant (higher
	// seq) — it must run after event 2, in FIFO order.
	s.At(at, func() {
		order = append(order, 3)
		s.At(s.Now(), rec(5))
		s.At(s.Now(), rec(6))
	})
	// Same-instant from t=0 runs first of all (t=0 < 1µs).
	s.At(s.Now(), rec(0))
	s.RunUntil(Time(time.Millisecond))
	want := []int{0, 1, 2, 3, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	s.Shutdown()
}

// Pending must count wheel events, those of the current instant included,
// alongside heap events.
func TestPendingCountsImmediateQueue(t *testing.T) {
	s := New(Config{Seed: 1})
	s.At(s.Now(), func() {})
	s.At(s.Now(), func() {})
	s.At(Time(time.Microsecond), func() {})
	s.At(Time(time.Millisecond), func() {})
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending() = %d, want 4 (3 on the wheel + 1 on the heap)", got)
	}
	s.RunUntil(Time(time.Millisecond))
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() after run = %d, want 0", got)
	}
	s.Shutdown()
}

// GetBatchT parks only for the first value and drains the rest of the run
// without parking; a same-instant run of Puts wakes the consumer once.
func TestChanBatchOps(t *testing.T) {
	s := New(Config{Seed: 1})
	ch := NewChan[int](s, 8)
	var runs [][]int
	s.SpawnTask("consumer", func(tk *Task) {
		buf := make([]int, 8)
		var next func()
		got := func(n int) {
			runs = append(runs, append([]int(nil), buf[:n]...))
			if len(runs) < 2 {
				next()
			}
		}
		next = func() {
			if n, inline := ch.GetBatchT(tk, buf, got); inline {
				got(n)
			}
		}
		next()
	})
	s.Spawn("producer", func(p *Proc) {
		for _, run := range [][]int{{10, 11, 12}, {20, 21}} {
			p.Sleep(time.Microsecond)
			for _, v := range run {
				ch.Put(p, v)
			}
		}
	})
	s.RunUntil(Time(time.Millisecond))
	s.Shutdown()
	if len(runs) != 2 {
		t.Fatalf("consumer saw %d runs, want 2", len(runs))
	}
	flat := append(append([]int(nil), runs[0]...), runs[1]...)
	want := []int{10, 11, 12, 20, 21}
	if len(flat) != len(want) {
		t.Fatalf("values %v, want %v", runs, want)
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("values %v, want %v (order preserved)", runs, want)
		}
	}
	// The first run must have drained more than one value in one wakeup:
	// the producer's burst is same-instant, so it is all visible by the
	// time the consumer's handoff runs.
	if len(runs[0]) < 2 {
		t.Fatalf("first GetBatchT drained %d values, want a multi-value run", len(runs[0]))
	}
	if n, inline := ch.GetBatchT(nil, nil, nil); n != 0 || !inline {
		t.Fatalf("GetBatchT with empty buf = (%d, %v), want (0, true)", n, inline)
	}
	s2 := New(Config{Seed: 1})
	s2.Shutdown()
}
