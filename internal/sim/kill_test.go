package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestResourceKilledTaskAfterGrantLeavesNoUnit: a Task killed after Release
// granted it the unit but before its wake ran must pass the unit on. The
// holder releases at 1µs; the kill is an event at 1µs scheduled before the
// grant's wake, so it runs between the two.
func TestResourceKilledTaskAfterGrantLeavesNoUnit(t *testing.T) {
	s := New(Config{})
	r := NewResource(s, 1)
	s.SpawnTask("holder", func(tk *Task) { r.WithT(tk, time.Microsecond, func() {}) })
	victim := s.SpawnTask("victim", func(tk *Task) {
		r.AcquireT(tk, func() { t.Error("killed victim acquired the resource") })
	})
	s.SpawnTask("killer", func(*Task) { s.After(time.Microsecond, victim.Kill) })
	s.Run()
	if r.InUse() != 0 || r.Waiting() != 0 || s.Live() != 0 {
		t.Fatalf("inUse=%d waiting=%d live=%d, want all 0", r.InUse(), r.Waiting(), s.Live())
	}
}

// killCase is one blocking call for the kill-path matrix, set up on a fresh
// Sim with its victim about to block.
type killCase struct {
	block func(p *Proc) // the Proc form
	park  func(t *Task) // the Task form
	// grant, if set, hands the blocked victim its wake before the kill, so
	// the kill lands between the grant and the wake event.
	grant func()
	// wake wakes the killed victim, or for Shutdown drains what the test
	// itself holds; nil when the call's own timeout is the wake.
	wake    func()
	waiting func() int // waiter nodes still queued on the primitive
	inUse   func() int // resource units still held
	// state, if set, checks the victim's state when the kill lands: ""
	// when it is the one the case is about.
	state func() string
}

// TestKillPathMatrix kills a victim blocked in each primitive three ways —
// a Proc killed with Kill and then woken, a Proc unwound by Shutdown, a Task
// killed with Kill — and checks that it leaves no queued waiter, no held
// unit, no live process and no goroutine behind.
func TestKillPathMatrix(t *testing.T) {
	baseline := countGoroutinesSettled()
	none := func() int { return 0 }
	chanWaiting := func(c *Chan[int]) func() int {
		return func() int { return c.getters.len() + c.putters.len() }
	}
	cases := []struct {
		name  string
		setup func(s *Sim) killCase
	}{
		{"chan-get", func(s *Sim) killCase {
			c := NewChan[int](s, 0)
			return killCase{
				block:   func(p *Proc) { c.Get(p) },
				park:    func(tk *Task) { c.GetT(tk, func(int) { t.Error("killed getter resumed") }) },
				wake:    func() { c.TryPut(1) },
				waiting: chanWaiting(c), inUse: none,
			}
		}},
		{"chan-put-full", func(s *Sim) killCase {
			c := NewChan[int](s, 1)
			c.TryPut(0)
			return killCase{
				block:   func(p *Proc) { c.Put(p, 1) },
				park:    func(tk *Task) { c.PutT(tk, 1, func() { t.Error("killed putter resumed") }) },
				wake:    func() { c.TryGet() },
				waiting: chanWaiting(c), inUse: none,
			}
		}},
		{"chan-get-timeout", func(s *Sim) killCase {
			c := NewChan[int](s, 0)
			return killCase{
				block: func(p *Proc) { c.GetTimeout(p, time.Millisecond) },
				park: func(tk *Task) {
					c.GetTimeoutT(tk, time.Millisecond, func(int, bool) { t.Error("killed getter resumed") })
				},
				waiting: chanWaiting(c), inUse: none,
			}
		}},
		// The victim's first wait receives at 500 ns, before its 1 ms
		// deadline. Its second wait parks on a fresh node (the first is
		// recycled only after the wake's continuation) and receives at
		// 600 ns, and its third takes the first node back, arming a later
		// deadline that the node's event due at 1 ms still carries when the
		// kill lands. Killed, it must neither resume nor re-queue.
		{"chan-get-timeout-carried", func(s *Sim) killCase {
			c := NewChan[int](s, 0)
			s.At(Time(500), func() { c.TryPut(1) })
			s.At(Time(600), func() { c.TryPut(2) })
			return killCase{
				block: func(p *Proc) {
					for range 3 {
						c.GetTimeout(p, time.Millisecond)
					}
				},
				park: func(tk *Task) {
					c.GetTimeoutT(tk, time.Millisecond, func(int, bool) {
						c.GetTimeoutT(tk, time.Millisecond, func(int, bool) {
							c.GetTimeoutT(tk, time.Millisecond, func(int, bool) { t.Error("killed getter resumed") })
						})
					})
				},
				waiting: chanWaiting(c), inUse: none,
				state: func() string {
					w := c.getters.q[c.getters.head]
					if w.dl.seq == 0 || w.dl.qseq == 0 || w.dl.qat != Time(time.Millisecond) || w.dl.at <= w.dl.qat {
						return fmt.Sprintf("deadline %+v, want one armed after the event queued at 1ms", w.dl)
					}
					return ""
				},
			}
		}},
		{"resource-queued", func(s *Sim) killCase {
			r := NewResource(s, 1)
			r.TryAcquire()
			return killCase{
				block:   r.Acquire,
				park:    func(tk *Task) { r.AcquireT(tk, func() { t.Error("killed acquirer resumed") }) },
				wake:    r.Release,
				waiting: r.Waiting, inUse: r.InUse,
			}
		}},
		{"resource-granted", func(s *Sim) killCase {
			r := NewResource(s, 1)
			r.TryAcquire()
			return killCase{
				block:   r.Acquire,
				park:    func(tk *Task) { r.AcquireT(tk, func() { t.Error("killed acquirer resumed") }) },
				grant:   r.Release,
				waiting: r.Waiting, inUse: r.InUse,
			}
		}},
		{"gate-wait", func(s *Sim) killCase {
			g := NewGate(s)
			return killCase{
				block:   func(p *Proc) { g.Wait(p, g.Version()) },
				park:    func(tk *Task) { g.WaitT(tk, g.Version(), func() { t.Error("killed waiter resumed") }) },
				wake:    g.Fire,
				waiting: g.Waiting, inUse: none,
			}
		}},
		{"gate-wait-timeout", func(s *Sim) killCase {
			g := NewGate(s)
			return killCase{
				block: func(p *Proc) { g.WaitTimeout(p, g.Version(), time.Millisecond) },
				park: func(tk *Task) {
					g.WaitTimeoutT(tk, g.Version(), time.Millisecond, func(bool) { t.Error("killed waiter resumed") })
				},
				waiting: g.Waiting, inUse: none,
			}
		}},
	}
	for _, c := range cases {
		for _, mode := range []string{"proc-kill", "proc-shutdown", "task-kill"} {
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				s := New(Config{})
				kc := c.setup(s)
				var kill func()
				if mode == "task-kill" {
					kill = s.SpawnTask("victim", kc.park).Kill
				} else {
					kill = s.Spawn("victim", func(p *Proc) {
						kc.block(p)
						t.Error("killed victim returned from its blocking call")
					}).Kill
				}
				s.RunUntil(Time(time.Microsecond))
				if kc.waiting() != 1 {
					t.Fatalf("waiting = %d before the kill, want 1", kc.waiting())
				}
				if kc.state != nil {
					if msg := kc.state(); msg != "" {
						t.Fatal(msg)
					}
				}
				if kc.grant != nil {
					kc.grant()
				}
				if mode == "proc-shutdown" {
					s.Shutdown()
				} else {
					kill() // a killed Proc unwinds once the wake resumes it
				}
				// Checked before the wake, which would pop a leftover node.
				if got := kc.waiting(); mode != "proc-kill" && got != 0 {
					t.Fatalf("waiting = %d after the kill, want 0", got)
				}
				if kc.wake != nil {
					kc.wake()
				}
				s.Run()
				s.Shutdown()
				if kc.waiting() != 0 || kc.inUse() != 0 || s.Live() != 0 {
					t.Fatalf("waiting=%d inUse=%d live=%d, want all 0", kc.waiting(), kc.inUse(), s.Live())
				}
			})
		}
	}
	if after := countGoroutinesSettled(); after > baseline {
		t.Fatalf("goroutines leaked: baseline %d, after %d", baseline, after)
	}
}
