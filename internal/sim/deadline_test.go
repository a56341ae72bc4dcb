package sim

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// refEvent is one expected model event: the reference order is (at, seq),
// seq being the scheduler slot the engine gave it when it was scheduled or,
// for a wait timeout, armed.
type refEvent struct {
	at  Time
	seq uint64
}

// refHeap is the reference queue of TestDeadlineOrderDifferential: a plain
// container/heap min-heap of the model events still expected, every armed
// wait timeout among them as an eager timer.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestDeadlineOrderDifferential checks the lazy wait deadlines against a
// reference that keeps one eager timer per armed wait, on seeded schedules
// of waits armed through Chan.GetTimeoutT and Gate.WaitTimeoutT in the
// deadline shapes a deployment arms:
//   - rising: three constant classes, 100 ms client timeouts, 5 ms
//     watchdogs and 100 µs receive polls;
//   - equal: a shrinking deadline shaped like the replicator's
//     since+wd-now, which re-arms at one absolute deadline until progress
//     moves it;
//   - falling: a deadline that falls faster than the clock advances, so
//     each wait's deadline is earlier than the one its node has queued;
//   - short: a deadline of 100 ns to 6 µs drawn per wait, so a node's
//     queued event often carries a later deadline forward to a time
//     inside the wheel's horizon, where the wheel may already hold newer
//     events due at that time;
//   - kills: now and then a parked consumer is killed and a new one takes
//     its place, and with it the killed wait's recycled node and whatever
//     event that node still has queued.
//
// Chains of plain events feed the waits on µs-aligned times, so most
// waits receive, and deadlines tie other events' times. Every model event
// — a task start, a plain event, a wake by a put or fire, a wait that times
// out — must run at its (at, seq) in order, checked online against the
// reference heap: a timeout at the (at, seq) its wait armed, carried
// forward by its node or not. A timeout whose wait resolved first runs no
// model event: Executed() counts exactly the events observed. At every
// stop the clock sits at the limit, no expected event is overdue and no
// event ran before the clock.
func TestDeadlineOrderDifferential(t *testing.T) {
	const budget = 20000 // model events scheduled per seed
	for seed := uint64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		s := New(Config{Seed: seed})
		var ref refHeap
		dead := map[uint64]bool{} // by seq: a timeout whose wait ended before it
		scheduled, observed := 0, 0
		// expect records the event the engine just gave the newest slot.
		expect := func(at Time) refEvent {
			scheduled++
			e := refEvent{at, s.seq}
			heap.Push(&ref, e)
			return e
		}
		popDead := func() {
			for ref.Len() > 0 && dead[ref[0].seq] {
				delete(dead, ref[0].seq)
				heap.Pop(&ref)
			}
		}
		observe := func(e refEvent) {
			if s.Now() != e.at || s.cur != e.seq {
				t.Fatalf("seed %d: event %v ran at (%v, %d)", seed, e, s.Now(), s.cur)
			}
			popDead()
			if ref.Len() == 0 || ref[0] != e {
				t.Fatalf("seed %d: ran event %v, want %v", seed, e, ref)
			}
			heap.Pop(&ref)
			observed++
		}

		// A consumer is one task that waits with a deadline from its stream
		// on its channel (ch != nil) or gate, and re-arms from every wake.
		type consumer struct {
			t       *Task
			ch      *Chan[int]
			g       *Gate
			next    func(now Time, timedOut bool) time.Duration
			parked  bool
			carried bool     // the pending wait's deadline queued no event
			timeout refEvent // the pending wait's timeout
			wake    refEvent // the pending put or fire wake
			weight  int      // feed share
			short   bool     // deadlines inside the wheel's horizon
		}
		var cs []*consumer
		var falling *consumer
		carriedFired, shortCarriedFired, fallingFired, kills := 0, 0, 0, 0
		var start func(c *consumer)
		start = func(c *consumer) {
			var arm func(timedOut bool)
			woke := func(ok bool) {
				c.parked = false
				if ok {
					observe(c.wake)
				} else {
					observe(c.timeout)
					if c.carried {
						carriedFired++
						if c.short {
							shortCarriedFired++
						}
					}
					if c == falling {
						fallingFired++
					}
				}
				arm(!ok)
			}
			kChan := func(_ int, ok bool) { woke(ok) }
			arm = func(timedOut bool) {
				for scheduled < budget {
					d := c.next(s.Now(), timedOut)
					queued := s.Pending()
					var inline bool
					if c.ch != nil {
						_, _, inline = c.ch.GetTimeoutT(c.t, d, kChan)
					} else {
						inline, _ = c.g.WaitTimeoutT(c.t, c.g.Version(), d, woke)
					}
					if !inline {
						c.parked = true
						c.carried = s.Pending() == queued
						c.timeout = expect(s.Now().Add(d))
						return
					}
					timedOut = false // a buffered value was taken inline
				}
			}
			var started refEvent
			c.t = s.SpawnTask("consumer", func(*Task) {
				observe(started)
				arm(false)
			})
			started = expect(s.Now())
		}
		add := func(c *consumer) {
			cs = append(cs, c)
			start(c)
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
		short := func(Time, bool) time.Duration {
			return 100 * time.Nanosecond * time.Duration(1+rng.IntN(60))
		}
		add(&consumer{ch: NewChan[int](s, 0), next: short, weight: 3, short: true})
		add(&consumer{g: NewGate(s), next: short, weight: 3, short: true})
		// A deadline that falls two units per unit of clock: each wake
		// re-arms strictly earlier than every timeout it armed before,
		// down to a few feed intervals, so shortened deadlines expire too.
		falling = &consumer{ch: NewChan[int](s, 0), weight: 2}
		{
			const w = 200 * time.Microsecond
			var t0 Time
			falling.next = func(now Time, timedOut bool) time.Duration {
				d := w - 2*now.Sub(t0)
				if timedOut || d < w/16 {
					t0, d = now, w
				}
				return d
			}
			add(falling)
		}
		totalWeight := 0
		for _, c := range cs {
			totalWeight += c.weight
		}
		pick := func() *consumer {
			r := rng.IntN(totalWeight)
			for _, c := range cs {
				if r -= c.weight; r < 0 {
					return c
				}
			}
			panic("unreachable")
		}
		feed := func() {
			c := pick()
			if c.ch != nil {
				c.ch.TryPut(1) // unparked: buffered, and the next wait takes it inline
			} else {
				c.g.Fire() // unparked: the next wait reads the new version
			}
			if c.parked {
				c.parked = false
				dead[c.timeout.seq] = true
				c.wake = expect(s.Now())
			}
		}
		// kill retires a parked consumer's task and starts another in its
		// place, which takes over the killed wait's recycled node.
		kill := func() {
			if c := pick(); c.parked {
				c.t.Kill()
				c.parked = false
				dead[c.timeout.seq] = true
				kills++
				start(c)
			}
		}

		// A chain event continues its chain after 5–40 µs, on a 5 µs grid
		// that most deadlines land on too, feeds a wait, and now and then
		// kills a consumer or fires a same-instant burst or a far outlier.
		us := Time(time.Microsecond)
		var schedule func(at Time, chain bool)
		schedule = func(at Time, chain bool) {
			var e refEvent
			s.At(at, func() {
				observe(e)
				if scheduled >= budget {
					return
				}
				if rng.IntN(2) == 0 {
					feed()
				}
				if rng.IntN(64) == 0 {
					kill()
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
			e = expect(at)
		}
		for i := 0; i < 16; i++ {
			schedule(5*us*Time(rng.IntN(20)), true)
		}

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
			if s.Now() != limit || s.TimeRegressions() != 0 || s.Executed() != uint64(observed) {
				t.Fatalf("seed %d: RunUntil(%v) left now=%v regressions=%d executed=%d, want %v, 0, %d",
					seed, limit, s.Now(), s.TimeRegressions(), s.Executed(), limit, observed)
			}
			if scheduled < budget {
				schedule(s.Now(), false)
			}
		}
		if popDead(); ref.Len() != 0 || s.Live() != 0 {
			t.Fatalf("seed %d: drained with %d expected events and %d live tasks left", seed, ref.Len(), s.Live())
		}
		if carriedFired == 0 || shortCarriedFired == 0 || fallingFired == 0 || kills == 0 {
			t.Fatalf("seed %d: %d carried (%d short) and %d falling deadlines expired and %d consumers were killed, want all > 0",
				seed, carriedFired, shortCarriedFired, fallingFired, kills)
		}
	}
}

// TestDeadlineQueueResidency is the deterministic guard on what the lazy
// deadlines are for: on a schedule shaped like a deployment — a watchdog
// task re-arming a 5 ms gate timeout on every pass, 100 µs receive polls and
// 100 ms client timeouts whose waits mostly receive, and short sleeps — the
// queues hold no stale timer per wait, only at most one event per live task
// and one per waiter node with a queued deadline. Eager timers leave
// thousands behind.
func TestDeadlineQueueResidency(t *testing.T) {
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
	// The deadlines eager timers would still hold: one per wait that ended
	// before its deadline, pending until the clock passes it.
	var stale []Time
	// The watchdog re-arms on every pass; its doorbell rings every 2 µs.
	g := NewGate(s)
	spawn(func(tk *Task) {
		var armed Time
		var pass func(bool)
		pass = func(fired bool) {
			if fired {
				stale = append(stale, armed)
			}
			for {
				if inline, _ := g.WaitTimeoutT(tk, g.Version(), 5*time.Millisecond, pass); !inline {
					armed = s.Now().Add(5 * time.Millisecond)
					return
				}
			}
		}
		pass(false)
	})
	sleeper(2*time.Microsecond, g.Fire)
	// Receive polls and client waits, each channel fed every 3 µs.
	var chans []*Chan[int]
	for _, d := range []time.Duration{100 * time.Microsecond, 100 * time.Millisecond} {
		for i := 0; i < 4; i++ {
			ch := NewChan[int](s, 0)
			chans = append(chans, ch)
			spawn(func(tk *Task) {
				var armed Time
				var wait func(int, bool)
				wait = func(_ int, ok bool) {
					if ok {
						stale = append(stale, armed)
					}
					for {
						if _, _, inline := ch.GetTimeoutT(tk, d, wait); !inline {
							armed = s.Now().Add(d)
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
	// withDeadline counts the waiter nodes, parked or free, whose deadline
	// event is queued.
	withDeadline := func() int {
		n := 0
		for _, ws := range [][]*gateWaiter{g.waiters, g.free} {
			for _, w := range ws {
				if w.dl.qseq != 0 {
					n++
				}
			}
		}
		for _, ch := range chans {
			for _, ws := range [][]*waiter[int]{ch.getters.q[ch.getters.head:], ch.free} {
				for _, w := range ws {
					if w.dl.qseq != 0 {
						n++
					}
				}
			}
		}
		return n
	}
	peak := 0
	for s.Now() < Time(20*time.Millisecond) {
		s.RunUntil(s.Now().Add(time.Microsecond))
		peak = max(peak, s.Pending())
		if nodes := withDeadline(); s.Pending() > tasks+nodes {
			t.Fatalf("at %v %d events are queued, want at most %d (%d tasks, %d nodes with a deadline)",
				s.Now(), s.Pending(), tasks+nodes, tasks, nodes)
		}
	}
	eager := 0
	for _, at := range stale {
		if at > s.Now() {
			eager++
		}
	}
	if eager < 2000 {
		t.Fatalf("eager timers would hold only %d stale deadlines: the schedule is too light to guard", eager)
	}
	t.Logf("queue peak %d events; eager timers would hold %d stale deadlines more", peak, eager)
	s.Shutdown()
}

// TestDeadlineShortenedAndCarried walks one gate waiter node, which every
// fire recycles before the waiter re-arms, through each way its deadline
// event can run: a wait that fires before its 100 µs deadline, a shortened
// 21 µs deadline that queues a second event and expires, a deadline armed
// at the same instant as the queued one, which queues nothing, and a later
// one the queued event carries forward to 340 µs. Each timeout must run at
// its armed (at, seq), the replaced 100 µs event must run no model event
// and leave exactly the one queued event behind, and Executed counts only
// model events.
func TestDeadlineShortenedAndCarried(t *testing.T) {
	us := time.Microsecond
	s := New(Config{})
	g := NewGate(s)
	for _, at := range []time.Duration{1 * us, 30 * us, 40 * us} {
		s.At(Time(at), g.Fire)
	}
	type end struct {
		at    Time
		fired bool
		seq   uint64 // the slot the wake ran in, for a timeout
	}
	var got, want []end
	ds := []time.Duration{100 * us, 20 * us, 200 * us, 191 * us, 300 * us}
	s.SpawnTask("waiter", func(tk *Task) {
		var k func(bool)
		var armed uint64
		wait := func() {
			d := ds[0]
			ds = ds[1:]
			g.WaitTimeoutT(tk, g.Version(), d, k)
			armed = s.seq
		}
		k = func(fired bool) {
			e := end{at: s.Now(), fired: fired}
			if !fired {
				e.seq = armed
				if s.cur != armed {
					t.Errorf("timeout at %v ran in slot %d, want %d", s.Now(), s.cur, armed)
				}
			}
			got = append(got, e)
			if len(ds) > 0 {
				wait()
			}
		}
		wait()
	})
	s.RunUntil(Time(150 * us))
	if s.Pending() != 1 {
		t.Errorf("%d events queued at 150µs, want only the node's event due at 221µs", s.Pending())
	}
	s.Run()
	want = []end{{Time(us), true, 0}, {Time(21 * us), false, got[1].seq}, {Time(30 * us), true, 0},
		{Time(40 * us), true, 0}, {Time(340 * us), false, got[4].seq}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("waits ended %v, want %v", got, want)
	}
	// The start, three fires, three wakes and two timeouts.
	if s.Executed() != 9 {
		t.Errorf("executed %d events, want 9", s.Executed())
	}
}

// TestCarriedDeadlineKeepsItsSlot: a deadline the node's queued event
// carries forward runs in the slot it was armed in, before an event due at
// the same time that was scheduled after the arm. At the µs scale both
// events wait on the heap; at the ns scale both are due within the wheel's
// horizon, so the later event sits in the deadline's bucket, and the carried
// deadline must still run first.
func TestCarriedDeadlineKeepsItsSlot(t *testing.T) {
	for _, unit := range []time.Duration{time.Microsecond, 100 * time.Nanosecond} {
		s := New(Config{})
		g := NewGate(s)
		var order []string
		s.At(Time(unit), g.Fire)
		s.At(Time(2*unit), func() { s.At(Time(20*unit), func() { order = append(order, "later event") }) })
		s.SpawnTask("waiter", func(tk *Task) {
			g.WaitTimeoutT(tk, g.Version(), 10*unit, func(bool) {
				// Re-armed at 1 unit for 20, after the event queued for 10.
				g.WaitTimeoutT(tk, g.Version(), 19*unit, func(fired bool) {
					order = append(order, fmt.Sprintf("timeout fired=%v at %v", fired, s.Now()))
				})
			})
		})
		s.Run()
		if got, want := fmt.Sprint(order), fmt.Sprintf("[timeout fired=false at %v later event]", Time(20*unit)); got != want {
			t.Fatalf("unit %v: ran %s, want %s", unit, got, want)
		}
	}
}

// TestChanDeliveryDisarmsTheDeadline: a put that lands at the instant of
// the getter's deadline, in a slot before it, delivers the value; the
// deadline event that runs between the delivery and the getter's wake must
// not time the wait out.
func TestChanDeliveryDisarmsTheDeadline(t *testing.T) {
	for _, task := range []bool{false, true} {
		s := New(Config{})
		ch := NewChan[int](s, 0)
		s.At(Time(10*time.Microsecond), func() { ch.TryPut(7) })
		var v int
		var ok bool
		if task {
			s.SpawnTask("getter", func(tk *Task) {
				ch.GetTimeoutT(tk, 10*time.Microsecond, func(got int, gotOK bool) { v, ok = got, gotOK })
			})
		} else {
			s.Spawn("getter", func(p *Proc) { v, ok = ch.GetTimeout(p, 10*time.Microsecond) })
		}
		s.Run()
		if v != 7 || !ok {
			t.Fatalf("task=%v: got (%d, %v), want (7, true)", task, v, ok)
		}
		s.Shutdown()
	}
}
