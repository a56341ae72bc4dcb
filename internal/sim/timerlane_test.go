package sim

import (
	"container/heap"
	"math/rand/v2"
	"testing"
	"time"
)

// refEvent is one expected observable event: the reference order is
// (at, id), id being the order in which the test made the engine schedule
// it.
type refEvent struct {
	at Time
	id int
}

// refHeap is the reference queue of TestTimerLaneOrderDifferential: a plain
// container/heap min-heap of the observable events still expected.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestTimerLaneOrderDifferential checks the timer lanes against a reference
// heap on seeded schedules of wait timeouts armed through Chan.GetTimeoutT
// and Gate.WaitTimeoutT, in the deadline shapes a deployment arms:
//   - three constant classes, 100 ms client timeouts, 5 ms watchdogs and
//     100 µs receive polls;
//   - a shrinking deadline shaped like the replicator's since+wd-now,
//     which re-arms at one absolute deadline until progress moves it;
//   - a deadline that falls faster than the clock advances, so its
//     timeouts arrive strictly decreasing and exhaust maxTimerLanes.
//
// Chains of plain events feed the waits on µs-aligned times, so most
// waits receive and leave a stale timer behind, and timeouts tie other
// events' times with smaller scheduling ids. Every observable event — a
// plain event, a wake by a put or fire, a wait that times out — must run at
// its time in (at, id) order, checked online against the reference heap.
// At every stop the clock sits at the limit, no expected event is overdue,
// no event ran before the clock and Pending() equals the events scheduled
// minus those executed.
func TestTimerLaneOrderDifferential(t *testing.T) {
	const budget = 20000 // events scheduled per seed
	for seed := uint64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		s := New(Config{Seed: seed})
		var ref refHeap
		var dead []bool // by id: a timeout whose wait resolved before it
		scheduled := 0  // every event the test made the engine schedule
		expect := func(at Time) int {
			id := len(dead)
			dead = append(dead, false)
			heap.Push(&ref, refEvent{at, id})
			return id
		}
		popDead := func() {
			for ref.Len() > 0 && dead[ref[0].id] {
				heap.Pop(&ref)
			}
		}
		observe := func(at Time, id int) {
			if s.Now() != at {
				t.Fatalf("seed %d: event %d for %v ran at %v", seed, id, at, s.Now())
			}
			popDead()
			if ref.Len() == 0 {
				t.Fatalf("seed %d: ran event %d at %v, want none", seed, id, at)
			}
			if ref[0] != (refEvent{at, id}) {
				t.Fatalf("seed %d: ran event %d at %v, want %v", seed, id, at, ref[0])
			}
			heap.Pop(&ref)
		}

		// A consumer is one task that waits with a deadline from its stream
		// on its channel (ch != nil) or gate, and re-arms from every wake.
		type consumer struct {
			t       *Task
			ch      *Chan[int]
			g       *Gate
			next    func(now Time, timedOut bool) time.Duration
			parked  bool
			timeout refEvent // the pending wait's timeout
			wake    refEvent // the pending put or fire wake
			weight  int      // feed share
		}
		var cs []*consumer
		add := func(c *consumer) {
			cs = append(cs, c)
			var arm func(timedOut bool)
			woke := func(ok bool) {
				c.parked = false
				if ok {
					observe(c.wake.at, c.wake.id)
				} else {
					observe(c.timeout.at, c.timeout.id)
				}
				arm(!ok)
			}
			kChan := func(_ int, ok bool) { woke(ok) }
			arm = func(timedOut bool) {
				for scheduled < budget {
					d := c.next(s.Now(), timedOut)
					var inline bool
					if c.ch != nil {
						_, _, inline = c.ch.GetTimeoutT(c.t, d, kChan)
					} else {
						inline, _ = c.g.WaitTimeoutT(c.t, c.g.Version(), d, woke)
					}
					if !inline {
						scheduled++
						c.parked = true
						at := s.Now().Add(d)
						c.timeout = refEvent{at, expect(at)}
						return
					}
					timedOut = false // a buffered value was taken inline
				}
			}
			scheduled++ // the start event
			c.t = s.SpawnTask("consumer", func(*Task) { arm(false) })
		}
		constant := func(d time.Duration) func(Time, bool) time.Duration {
			return func(Time, bool) time.Duration { return d }
		}
		for _, d := range []time.Duration{100 * time.Millisecond, 5 * time.Millisecond, 100 * time.Microsecond} {
			add(&consumer{ch: NewChan[int](s, 0), next: constant(d), weight: 4})
			add(&consumer{g: NewGate(s), next: constant(d), weight: 4})
			add(&consumer{ch: NewChan[int](s, 0), next: constant(d), weight: 1})
		}
		// The replicator's watchdog: the deadline is since+wd, and since
		// moves only on progress (one wake in four here) or a timeout.
		for i := 0; i < 2; i++ {
			const wd = 500 * time.Microsecond
			var since Time
			add(&consumer{g: NewGate(s), weight: 3, next: func(now Time, timedOut bool) time.Duration {
				if timedOut || rng.IntN(4) == 0 || since.Add(wd) <= now {
					since = now
				}
				return since.Add(wd).Sub(now)
			}})
		}
		// A deadline that falls two units per unit of clock: each wake
		// re-arms strictly earlier than every timeout it armed before.
		{
			const w = 2 * time.Millisecond
			var t0 Time
			add(&consumer{ch: NewChan[int](s, 0), weight: 12, next: func(now Time, timedOut bool) time.Duration {
				d := w - 2*now.Sub(t0)
				if timedOut || d < w/8 {
					t0, d = now, w
				}
				return d
			}})
		}
		totalWeight := 0
		for _, c := range cs {
			totalWeight += c.weight
		}
		feed := func() {
			r := rng.IntN(totalWeight)
			c := cs[0]
			for _, c = range cs {
				if r -= c.weight; r < 0 {
					break
				}
			}
			if !c.parked {
				if c.ch != nil {
					c.ch.TryPut(1) // buffered: the next wait takes it inline
				} else {
					c.g.Fire() // no waiter: the next wait reads the new version
				}
				return
			}
			c.parked = false
			dead[c.timeout.id] = true
			if c.ch != nil {
				c.ch.TryPut(1)
			} else {
				c.g.Fire()
			}
			scheduled++
			c.wake = refEvent{s.Now(), expect(s.Now())}
		}

		// A chain event continues its chain after 5–40 µs, on a 5 µs grid
		// that most timeouts land on too, feeds a wait, and now and then
		// fires a same-instant burst or a far outlier.
		us := Time(time.Microsecond)
		var schedule func(at Time, chain bool)
		schedule = func(at Time, chain bool) {
			scheduled++
			id := expect(at)
			s.At(at, func() {
				observe(at, id)
				if scheduled >= budget {
					return
				}
				if rng.IntN(2) == 0 {
					feed()
				}
				if rng.IntN(16) == 0 {
					for k := 1 + rng.IntN(4); k > 0; k-- {
						schedule(at, false)
					}
				}
				if !chain {
					return
				}
				schedule(at+5*us*Time(1+rng.IntN(8)), true)
				if rng.IntN(500) == 0 {
					schedule(at+5*us*Time(200+rng.IntN(10_000)), false)
				}
			})
		}
		for i := 0; i < 16; i++ {
			schedule(5*us*Time(rng.IntN(20)), true)
		}

		lanesSeen := 0
		for stops := 0; s.Pending() > 0; stops++ {
			if stops > 1_000_000 {
				t.Fatalf("seed %d: %d events never ran", seed, s.Pending())
			}
			limit := s.Now()
			switch rng.IntN(3) {
			case 1:
				limit += us * Time(rng.IntN(20))
			case 2:
				limit += us * Time(rng.IntN(2000))
			}
			s.RunUntil(limit)
			popDead()
			if ref.Len() > 0 && ref[0].at <= limit {
				t.Fatalf("seed %d: RunUntil(%v) left event %v unrun", seed, limit, ref[0])
			}
			if want := scheduled - int(s.Executed()); s.Now() != limit || s.TimeRegressions() != 0 || s.Pending() != want {
				t.Fatalf("seed %d: RunUntil(%v) left now=%v regressions=%d pending=%d, want %v, 0, %d",
					seed, limit, s.Now(), s.TimeRegressions(), s.Pending(), limit, want)
			}
			lanesSeen = max(lanesSeen, len(s.tlanes))
			if scheduled < budget {
				schedule(s.Now(), false)
			}
		}
		if popDead(); ref.Len() != 0 || s.Live() != 0 {
			t.Fatalf("seed %d: drained with %d expected events and %d live tasks left", seed, ref.Len(), s.Live())
		}
		if lanesSeen != maxTimerLanes {
			t.Fatalf("seed %d: schedule used %d timer lanes, want all %d", seed, lanesSeen, maxTimerLanes)
		}
	}
}

// TestTimerLaneHeapResidency is the deterministic guard on what the timer
// lanes are for: on a schedule shaped like a deployment — a watchdog task
// re-arming a 5 ms gate timeout on every pass, 100 µs receive polls and
// 100 ms client timeouts whose waits mostly receive, and short sleeps —
// the heap holds no stale timer, only the live events (at most one non-
// timeout event per task) and one proxy per timer lane. With every
// out-of-order timeout in the heap it holds thousands.
func TestTimerLaneHeapResidency(t *testing.T) {
	s := New(Config{Seed: 1})
	tasks := 0
	spawn := func(start func(*Task)) {
		tasks++
		s.SpawnTask("task", start)
	}
	sleeper := func(d time.Duration, body func()) {
		spawn(func(tk *Task) {
			var tick func()
			tick = func() {
				body()
				tk.Sleep(d, tick)
			}
			tk.Sleep(d, tick)
		})
	}
	// The watchdog re-arms on every pass; its doorbell rings every 2 µs.
	g := NewGate(s)
	spawn(func(tk *Task) {
		var pass func(bool)
		pass = func(bool) {
			for {
				if inline, _ := g.WaitTimeoutT(tk, g.Version(), 5*time.Millisecond, pass); !inline {
					return
				}
			}
		}
		pass(true)
	})
	sleeper(2*time.Microsecond, g.Fire)
	// Receive polls and client waits, each channel fed every 3 µs.
	for _, d := range []time.Duration{100 * time.Microsecond, 100 * time.Millisecond} {
		for i := 0; i < 4; i++ {
			ch := NewChan[int](s, 0)
			spawn(func(tk *Task) {
				var wait func(int, bool)
				wait = func(int, bool) {
					for {
						if _, _, inline := ch.GetTimeoutT(tk, d, wait); !inline {
							return
						}
					}
				}
				wait(0, false)
			})
			sleeper(3*time.Microsecond, func() { ch.TryPut(1) })
		}
	}
	for i := 1; i <= 4; i++ {
		sleeper(time.Duration(i)*time.Microsecond+time.Duration(i)*time.Nanosecond, func() {})
	}
	peak := 0
	for s.Now() < Time(20*time.Millisecond) {
		s.RunUntil(s.Now().Add(time.Microsecond))
		peak = max(peak, len(s.events))
		if bound := tasks + len(s.tlanes); len(s.events) > bound {
			t.Fatalf("at %v the heap holds %d events, want at most %d (%d tasks, %d timer lanes)",
				s.Now(), len(s.events), bound, tasks, len(s.tlanes))
		}
	}
	if s.Pending() < 2000 {
		t.Fatalf("only %d events pending: the schedule leaves too few stale timers to guard", s.Pending())
	}
	t.Logf("heap peak %d with %d events pending, %d timer lanes", peak, s.Pending(), len(s.tlanes))
	s.Shutdown()
}
