package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestShutdownReleasesGoroutines verifies Shutdown unwinds every process
// goroutine regardless of what it is blocked on: timers, empty channels,
// full channels, exhausted resources, and gates, or whether it was
// ever stepped at all. Each process goroutine must exit, returning
// runtime.NumGoroutine() to its baseline.
func TestShutdownReleasesGoroutines(t *testing.T) {
	baseline := countGoroutinesSettled()

	s := New(Config{Seed: 1})
	emptyCh := NewChan[int](s, 0)
	fullCh := NewChan[int](s, 1)
	res := NewResource(s, 1)
	gate := NewGate(s)

	for i := 0; i < 8; i++ {
		s.Spawn("timer", func(p *Proc) { p.Sleep(time.Hour) })
		s.Spawn("getter", func(p *Proc) { emptyCh.Get(p) })
		s.Spawn("getter-timeout", func(p *Proc) { emptyCh.GetTimeout(p, time.Hour) })
		s.Spawn("putter", func(p *Proc) {
			fullCh.Put(p, 1) // first fills the buffer, the rest block
		})
		s.Spawn("acquirer", func(p *Proc) {
			res.Acquire(p)
			p.Sleep(time.Hour)
		})
		s.Spawn("gated", func(p *Proc) { gate.Wait(p, gate.Version()) })
	}
	// Let every process reach its blocking point.
	s.RunUntil(s.Now().Add(time.Millisecond))
	// Spawned after the run: Shutdown is the first to step these.
	for i := 0; i < 8; i++ {
		s.Spawn("never-stepped", func(p *Proc) { p.Sleep(time.Hour) })
	}
	if live := s.Live(); live == 0 {
		t.Fatal("expected live processes before Shutdown")
	}
	s.Shutdown()
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", live)
	}

	after := countGoroutinesSettled()
	if after > baseline {
		t.Fatalf("goroutines leaked across Shutdown: baseline %d, after %d", baseline, after)
	}
}

// TestShutdownIsDeterministic: two identical simulations must unwind their
// processes in the same order (spawn order), observable through kill-time
// cleanup side effects.
func TestShutdownIsDeterministic(t *testing.T) {
	trace := func() []string {
		s := New(Config{Seed: 1})
		var order []string
		ch := NewChan[int](s, 0)
		for _, name := range []string{"a", "b", "c", "d", "e"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				defer func() {
					order = append(order, name)
					if r := recover(); r != nil {
						panic(r)
					}
				}()
				ch.Get(p)
			})
		}
		s.RunUntil(s.Now().Add(time.Millisecond))
		s.Shutdown()
		return order
	}
	first := trace()
	if len(first) != 5 {
		t.Fatalf("expected 5 unwound processes, got %v", first)
	}
	for i := 0; i < 3; i++ {
		if got := trace(); !equalStrings(got, first) {
			t.Fatalf("shutdown order changed across runs: %v vs %v", got, first)
		}
	}
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		if first[i] != name {
			t.Fatalf("shutdown order %v is not spawn order", first)
		}
	}
}

// TestShutdownRetiresLiveTasks: Shutdown must retire run-to-completion tasks
// parked on every primitive exactly as it unwinds coroutine Procs — Live()
// drops to zero, OnKill hooks run, and (tasks having no goroutines) the
// goroutine count stays at its baseline.
func TestShutdownRetiresLiveTasks(t *testing.T) {
	baseline := countGoroutinesSettled()

	s := New(Config{Seed: 1})
	emptyCh := NewChan[int](s, 0)
	fullCh := NewChan[int](s, 1)
	res := NewResource(s, 1)
	gate := NewGate(s)

	killed := 0
	for i := 0; i < 8; i++ {
		s.SpawnTask("timer", func(tk *Task) {
			tk.OnKill(func() { killed++ })
			tk.Sleep(time.Hour, func() {})
		})
		s.SpawnTask("getter", func(tk *Task) {
			tk.OnKill(func() { killed++ })
			emptyCh.GetT(tk, func(int) {})
		})
		s.SpawnTask("putter", func(tk *Task) {
			tk.OnKill(func() { killed++ })
			if fullCh.PutT(tk, 1, func() {}) { // first fills, the rest park
				tk.Sleep(time.Hour, func() {})
			}
		})
		s.SpawnTask("acquirer", func(tk *Task) {
			tk.OnKill(func() { killed++ })
			if res.AcquireT(tk, func() { tk.Sleep(time.Hour, func() {}) }) {
				tk.Sleep(time.Hour, func() {})
			}
		})
		s.SpawnTask("gated", func(tk *Task) {
			tk.OnKill(func() { killed++ })
			gate.WaitT(tk, gate.Version(), func() {})
		})
		s.SpawnTask("gated-timeout", func(tk *Task) {
			tk.OnKill(func() { killed++ })
			gate.WaitTimeoutT(tk, gate.Version(), time.Hour, func(bool) {})
		})
		// Interleave Procs so the unwind crosses substrates.
		s.Spawn("proc-getter", func(p *Proc) { emptyCh.Get(p) })
	}
	s.RunUntil(s.Now().Add(time.Millisecond))
	if live := s.Live(); live == 0 {
		t.Fatal("expected live processes before Shutdown")
	}
	s.Shutdown()
	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", live)
	}
	if killed != 48 {
		t.Fatalf("OnKill ran for %d tasks, want 48", killed)
	}

	after := countGoroutinesSettled()
	if after > baseline {
		t.Fatalf("goroutines leaked across Shutdown: baseline %d, after %d", baseline, after)
	}
}

// TestShutdownOrderCrossesSubstrates: the unwind order is spawn order across
// both substrates, observable through Proc defers and Task OnKill hooks.
func TestShutdownOrderCrossesSubstrates(t *testing.T) {
	trace := func() []string {
		s := New(Config{Seed: 1})
		var order []string
		ch := NewChan[int](s, 0)
		for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
			name := name
			if i%2 == 0 {
				s.Spawn(name, func(p *Proc) {
					defer func() {
						order = append(order, name)
						if r := recover(); r != nil {
							panic(r)
						}
					}()
					ch.Get(p)
				})
			} else {
				s.SpawnTask(name, func(tk *Task) {
					tk.OnKill(func() { order = append(order, name) })
					ch.GetT(tk, func(int) {})
				})
			}
		}
		s.RunUntil(s.Now().Add(time.Millisecond))
		s.Shutdown()
		return order
	}
	first := trace()
	if len(first) != 6 {
		t.Fatalf("expected 6 unwound processes, got %v", first)
	}
	for i := 0; i < 3; i++ {
		if got := trace(); !equalStrings(got, first) {
			t.Fatalf("shutdown order changed across runs: %v vs %v", got, first)
		}
	}
	for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
		if first[i] != name {
			t.Fatalf("shutdown order %v is not spawn order", first)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countGoroutinesSettled samples the goroutine count after letting exiting
// goroutines finish unwinding.
func countGoroutinesSettled() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n && i > 5 {
			return m
		}
		n = m
	}
	return n
}
