package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestProcPanicReachesRunUntil: a panic other than a kill inside a Proc
// leaves RunUntil on the caller's goroutine with its original value, and the
// process counts as exited.
func TestProcPanicReachesRunUntil(t *testing.T) {
	type fault struct{ code int }
	s := New(Config{})
	s.Spawn("faulty", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic(fault{7})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		s.RunUntil(Time(time.Millisecond))
	}()
	if got != (fault{7}) {
		t.Fatalf("RunUntil panicked with %v, want %v", got, fault{7})
	}
	if s.Live() != 0 {
		t.Fatalf("Live() = %d after the panic, want 0", s.Live())
	}
}

// TestNestedResume: Proc A completes Proc B's pending Await by calling its
// done directly, so A resumes B from inside A's own step. B must run up to
// its next blocking point before A continues, both must keep their virtual
// timelines, and Shutdown must still unwind every goroutine.
func TestNestedResume(t *testing.T) {
	baseline := countGoroutinesSettled()
	s := New(Config{})
	ch := NewChan[int](s, 0)
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%v %s", s.Now(), who)) }
	var doneB func()
	s.Spawn("B", func(p *Proc) {
		p.Await(func(_ *Task, done func()) { doneB = done })
		note("B resumed")
		p.Sleep(time.Microsecond)
		note("B slept")
		ch.Get(p) // nothing is ever put: Shutdown unwinds B here
		note("B got")
	})
	s.Spawn("A", func(p *Proc) {
		p.Sleep(time.Microsecond)
		doneB()
		note("A resumed B")
		p.Sleep(2 * time.Microsecond)
		note("A done")
	})
	s.Run()
	want := "[1µs B resumed 1µs A resumed B 2µs B slept 3µs A done]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	if s.Live() != 1 {
		t.Fatalf("Live() = %d, want only B", s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", s.Live())
	}
	if after := countGoroutinesSettled(); after > baseline {
		t.Fatalf("goroutines leaked: baseline %d, after %d", baseline, after)
	}
}

// TestSpawnFrameOnProcStack pins the name of the frame every Proc's stack
// starts from: bench/perf charges the samples beneath it to the simulator.
func TestSpawnFrameOnProcStack(t *testing.T) {
	const entry = "lynx/internal/sim.(*Sim).Spawn.func1"
	s := New(Config{})
	var funcs []string
	s.Spawn("probe", func(p *Proc) {
		pc := make([]uintptr, 64)
		frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
	})
	s.Run()
	for _, f := range funcs {
		if f == entry {
			return
		}
	}
	t.Fatalf("%s is not on the process stack %q", entry, funcs)
}
