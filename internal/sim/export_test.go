package sim

import (
	"math/bits"
	"time"
)

// Name returns the task name given at SpawnTask time.
func (t *Task) Name() string { return t.name }

// Sim returns the simulation this task belongs to.
func (t *Task) Sim() *Sim { return t.sim }

// OnKill registers fn to run when the task is killed while parked — the
// task-substrate analogue of a Proc's deferred cleanup unwinding on Kill.
func (t *Task) OnKill(fn func()) { t.onKill = fn }

// Kill retires the task immediately: its waiter (if parked) is removed, the
// OnKill hook runs, and any already-scheduled wake becomes a no-op. Killing
// a finished task is a no-op.
func (t *Task) Kill() { t.kill() }

// GetTimeoutT is GetTimeout for tasks. It returns inline (inline=true, k
// never runs) when a value is buffered (ok=true) or d <= 0 (ok=false).
// Otherwise t parks and k runs from whichever comes first: the putter's
// hand-off event (ok=true) or the timeout event (ok=false), exactly where a
// Proc's GetTimeout would resume.
func (c *Chan[T]) GetTimeoutT(t *Task, d time.Duration, k func(v T, ok bool)) (v T, ok, inline bool) {
	v, ok, w := c.recvTimeout(t, d, nil)
	if w != nil {
		w.kto = k
	}
	return v, ok, w == nil
}

// Pending reports the number of queued events, stale deadline events
// included: the heap's and those on every occupied wheel bucket's list.
func (s *Sim) Pending() int {
	n := len(s.events)
	for w, word := range s.wheel.occ {
		for ; word != 0; word &= word - 1 {
			b := s.wheel.buckets[w<<6+bits.TrailingZeros64(word)]
			for i := b.head; i != 0; i = s.wheel.nodes[i].next {
				n++
			}
		}
	}
	return n
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Kill marks p so that its next blocking operation unwinds the process.
// Killing an exited process is a no-op.
func (p *Proc) Kill() { p.killed = true }

// len reports the queued waiter nodes.
func (w *waiterQ[T]) len() int { return len(w.q) - w.head }

// InUse reports the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Waiting reports the number of blocked acquirers.
func (r *Resource) Waiting() int { return len(r.waiters) - r.wHead }

// Waiting reports the number of blocked waiters.
func (g *Gate) Waiting() int { return len(g.waiters) }
