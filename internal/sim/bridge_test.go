package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestAwaitMatchesTask: one sequence of task-form operations — a sleep, a
// channel hand-off, a resource hold, a gate timeout, a receive with a
// deadline and an inline channel take — issued from a Task and, step by
// step, from a Proc through Await, produces the same executed-event count
// and the same timestamped event order, next to the same background traffic.
func TestAwaitMatchesTask(t *testing.T) {
	run := func(viaProc bool) ([]string, uint64) {
		s := New(Config{Seed: 1})
		ch := NewChan[int](s, 0)
		res := NewResource(s, 1)
		g := NewGate(s)
		var log []string
		note := func(format string, args ...any) {
			log = append(log, fmt.Sprintf("%v ", s.Now())+fmt.Sprintf(format, args...))
		}
		steps := []func(tk *Task, k func()){
			func(tk *Task, k func()) { tk.Sleep(3*time.Microsecond, k) },
			func(tk *Task, k func()) {
				got := func(v int) { note("get %d", v); k() }
				if v, ok := ch.GetT(tk, got); ok {
					got(v)
				}
			},
			func(tk *Task, k func()) { res.WithT(tk, 2*time.Microsecond, k) },
			func(tk *Task, k func()) {
				woke := func(fired bool) { note("gate fired=%v", fired); k() }
				if inline, fired := g.WaitTimeoutT(tk, g.Version(), 5*time.Microsecond, woke); inline {
					woke(fired)
				}
			},
			func(tk *Task, k func()) {
				got := func(v int, ok bool) { note("get-timeout %d %v", v, ok); k() }
				if v, ok, inline := ch.GetTimeoutT(tk, 4*time.Microsecond, got); inline {
					got(v, ok)
				}
			},
			func(tk *Task, k func()) {
				got := func(v int) { note("buffered %d", v); k() }
				if v, ok := ch.GetT(tk, got); ok {
					got(v)
				}
			},
		}
		if viaProc {
			s.Spawn("op", func(p *Proc) {
				for i, step := range steps {
					p.Await(func(tk *Task, done func()) { step(tk, done) })
					note("step %d done", i)
				}
			})
		} else {
			s.SpawnTask("op", func(tk *Task) {
				var next func(i int)
				next = func(i int) {
					if i == len(steps) {
						return
					}
					steps[i](tk, func() {
						note("step %d done", i)
						next(i + 1)
					})
				}
				next(0)
			})
		}
		s.Spawn("producer", func(p *Proc) {
			p.Sleep(5 * time.Microsecond)
			ch.Put(p, 1)
			p.Sleep(10 * time.Microsecond)
			ch.Put(p, 2)
			ch.Put(p, 3)
			note("produced")
		})
		s.Spawn("holder", func(p *Proc) {
			p.Sleep(4 * time.Microsecond)
			res.With(p, 3*time.Microsecond, nil)
			note("held")
		})
		s.Run()
		return log, s.Executed()
	}
	taskLog, taskEvents := run(false)
	procLog, procEvents := run(true)
	if fmt.Sprint(taskLog) != fmt.Sprint(procLog) {
		t.Fatalf("event order differs:\n task: %q\n proc: %q", taskLog, procLog)
	}
	if taskEvents != procEvents {
		t.Fatalf("executed events: task %d, proc via Await %d", taskEvents, procEvents)
	}
	if len(taskLog) != 12 {
		t.Fatalf("sequence stopped early: %q", taskLog)
	}
}

// TestAwaitInlineContinuation: an operation whose continuation runs inside
// the call (a free resource held for zero time) returns Await without
// yielding: no event runs and the clock does not move.
func TestAwaitInlineContinuation(t *testing.T) {
	s := New(Config{})
	res := NewResource(s, 1)
	var before, after uint64
	var at Time
	ran := false
	s.Spawn("op", func(p *Proc) {
		s.At(p.Now(), func() { ran = true })
		before = s.Executed()
		p.Await(func(tk *Task, done func()) { res.WithT(tk, 0, done) })
		after, at = s.Executed(), p.Now()
		if ran {
			t.Error("a same-instant event ran inside an inline Await")
		}
	})
	s.Run()
	if after != before || at != 0 {
		t.Fatalf("inline Await executed %d events and ended at %v, want none at 0", after-before, at)
	}
	if res.InUse() != 0 {
		t.Fatalf("resource still held: %d", res.InUse())
	}
}

// TestAwaitKilledProcUnwinds: a Proc killed or shut down while parked in a
// bridged operation unwinds without running the code after Await, and its
// goroutine exits.
func TestAwaitKilledProcUnwinds(t *testing.T) {
	baseline := countGoroutinesSettled()
	s := New(Config{Seed: 1})
	ch := NewChan[int](s, 0)
	g := NewGate(s)
	resumed := 0
	getter := func(p *Proc) {
		p.Await(func(tk *Task, done func()) {
			if _, ok := ch.GetT(tk, func(int) { done() }); ok {
				done()
			}
		})
		resumed++
	}
	killed := s.Spawn("killed", getter)
	s.Spawn("shut-down", func(p *Proc) {
		p.Await(func(tk *Task, done func()) {
			if inline, _ := g.WaitTimeoutT(tk, g.Version(), time.Hour, func(bool) { done() }); inline {
				done()
			}
		})
		resumed++
	})
	s.RunUntil(Time(time.Microsecond))
	killed.Kill()
	// The killed getter takes the value but unwinds on resume.
	ch.TryPut(7)
	if ch.Len() != 0 {
		t.Fatal("no waiting getter took the value")
	}
	s.RunUntil(Time(2 * time.Microsecond))
	if s.Live() != 1 {
		t.Fatalf("Live() = %d after the kill, want 1", s.Live())
	}
	s.Shutdown()
	if resumed != 0 {
		t.Fatalf("%d processes ran past a killed Await", resumed)
	}
	if s.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", s.Live())
	}
	if after := countGoroutinesSettled(); after > baseline {
		t.Fatalf("goroutines leaked: baseline %d, after %d", baseline, after)
	}
}
