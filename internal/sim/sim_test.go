package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvances(t *testing.T) {
	s := New(Config{})
	var fired []Time
	s.After(5*time.Microsecond, func() { fired = append(fired, s.Now()) })
	s.After(2*time.Microsecond, func() { fired = append(fired, s.Now()) })
	s.After(9*time.Microsecond, func() { fired = append(fired, s.Now()) })
	s.Run()
	want := []Time{Time(2 * time.Microsecond), Time(5 * time.Microsecond), Time(9 * time.Microsecond)}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(Config{})
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(100), func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated FIFO: got %v", order)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	s := New(Config{})
	ran := false
	s.At(Time(time.Second), func() { ran = true })
	s.RunUntil(Time(time.Millisecond))
	if ran {
		t.Fatal("event beyond limit ran")
	}
	if s.Now() != Time(time.Millisecond) {
		t.Fatalf("clock at %v, want 1ms", s.Now())
	}
	s.RunUntil(Time(2 * time.Second))
	if !ran {
		t.Fatal("event not run after extending limit")
	}
}

// A limit before Now() must leave the clock and the pending events alone,
// so nothing can be scheduled, or run, in the past.
func TestRunUntilPastLimitKeepsClock(t *testing.T) {
	s := New(Config{})
	ran := false
	s.At(Time(10*time.Microsecond), func() { ran = true })
	s.RunUntil(Time(5 * time.Microsecond))
	s.RunUntil(Time(time.Microsecond))
	if s.Now() != Time(5*time.Microsecond) || s.Pending() != 1 || ran {
		t.Fatalf("RunUntil(1µs) at 5µs: now=%v pending=%d ran=%v, want 5µs, 1, false", s.Now(), s.Pending(), ran)
	}
	defer func() {
		if recover() == nil {
			t.Error("At(2µs) with the clock at 5µs did not panic")
		}
	}()
	s.At(Time(2*time.Microsecond), func() {})
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(Config{})
	s.At(Time(10), func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(Time(5), func() {})
	})
	s.Run()
}

func TestProcSleep(t *testing.T) {
	s := New(Config{})
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	s.Run()
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
	if s.Live() != 0 {
		t.Fatalf("%d live procs after run", s.Live())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New(Config{Seed: 7})
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Duration(1+p.Sim().Rand().IntN(5)) * time.Microsecond)
					trace = append(trace, name)
				}
			})
		}
		s.Run()
		return trace
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("trace length varies")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("nondeterministic trace: %v vs %v", first, got)
				}
			}
		}
	}
}

func TestChanHandoff(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 0)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, ch.Get(p))
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Microsecond)
			ch.Put(p, i*10)
		}
	})
	s.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestChanCapacityBlocksPutter(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 1)
	var putDone, getAt Time
	s.Spawn("producer", func(p *Proc) {
		ch.Put(p, 1) // fills
		ch.Put(p, 2) // blocks until consumer drains
		putDone = p.Now()
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		getAt = p.Now()
		_ = ch.Get(p)
		_ = ch.Get(p)
	})
	s.Run()
	if putDone < getAt {
		t.Fatalf("second Put finished at %v before consumer ran at %v", putDone, getAt)
	}
}

func TestChanFIFOAcrossManyMessages(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 4)
	const n = 1000
	var got []int
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			ch.Put(p, i)
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			got = append(got, ch.Get(p))
			if i%7 == 0 {
				p.Sleep(time.Nanosecond)
			}
		}
	})
	s.Run()
	if len(got) != n {
		t.Fatalf("got %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered at %d: %d", i, v)
		}
	}
}

func TestChanGetTimeout(t *testing.T) {
	s := New(Config{})
	ch := NewChan[string](s, 0)
	var ok1, ok2 bool
	var at1 Time
	s.Spawn("consumer", func(p *Proc) {
		_, ok1 = ch.GetTimeout(p, 5*time.Microsecond)
		at1 = p.Now()
		var v string
		v, ok2 = ch.GetTimeout(p, time.Second)
		if v != "hello" {
			t.Errorf("got %q", v)
		}
	})
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(20 * time.Microsecond)
		ch.Put(p, "hello")
	})
	s.Run()
	if ok1 {
		t.Error("first Get should have timed out")
	}
	if at1 != Time(5*time.Microsecond) {
		t.Errorf("timeout fired at %v, want 5µs", at1)
	}
	if !ok2 {
		t.Error("second Get should have received")
	}
}

// A GetTimeout that receives before its deadline leaves its timer pending;
// when that stale timer fires during the getter's next wait it must not end
// that wait — on either substrate.
func TestChanGetTimeoutStaleTimer(t *testing.T) {
	for _, task := range []bool{false, true} {
		s := New(Config{})
		ch := NewChan[int](s, 0)
		var v1, v2 int
		var ok1, ok2 bool
		var at2 Time
		if task {
			s.SpawnTask("consumer", func(tk *Task) {
				second := func(v int, ok bool) { v2, ok2, at2 = v, ok, tk.Now() }
				first := func(v int, ok bool) {
					v1, ok1 = v, ok
					ch.GetTimeoutT(tk, 50*time.Microsecond, second)
				}
				ch.GetTimeoutT(tk, 10*time.Microsecond, first)
			})
		} else {
			s.Spawn("consumer", func(p *Proc) {
				v1, ok1 = ch.GetTimeout(p, 10*time.Microsecond)
				v2, ok2 = ch.GetTimeout(p, 50*time.Microsecond)
				at2 = p.Now()
			})
		}
		s.Spawn("producer", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ch.Put(p, 1)
			p.Sleep(19 * time.Microsecond)
			ch.Put(p, 2)
		})
		s.Run()
		if !ok1 || v1 != 1 || !ok2 || v2 != 2 {
			t.Fatalf("task=%v: got (%d,%v) then (%d,%v), want (1,true) then (2,true)", task, v1, ok1, v2, ok2)
		}
		if at2 != Time(20*time.Microsecond) {
			t.Fatalf("task=%v: second wait ended at %v, want 20µs (the stale 10µs timer must not end it)", task, at2)
		}
	}
}

// The timer of a gate wait the gate fired first must not end the waiter's
// next wait.
func TestGateWaitTimeoutStaleTimer(t *testing.T) {
	s := New(Config{})
	g := NewGate(s)
	var taskAt Time
	var taskFired bool
	s.SpawnTask("task", func(tk *Task) {
		g.WaitTimeoutT(tk, g.Version(), 10*time.Microsecond, func(bool) {
			g.WaitTimeoutT(tk, g.Version(), 50*time.Microsecond, func(fired bool) {
				taskFired, taskAt = fired, tk.Now()
			})
		})
	})
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		g.Fire()
		p.Sleep(19 * time.Microsecond)
		g.Fire()
	})
	s.Run()
	if !taskFired || taskAt != Time(20*time.Microsecond) {
		t.Fatalf("second wait fired=%v at %v, want fired at 20µs", taskFired, taskAt)
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New(Config{})
	r := NewResource(s, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		s.Spawn("worker", func(p *Proc) {
			r.With(p, 10*time.Microsecond, nil)
			finish = append(finish, p.Now())
		})
	}
	s.Run()
	want := []Time{Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond)}
	if len(finish) != 3 {
		t.Fatalf("%d finished", len(finish))
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Errorf("worker %d finished at %v, want %v", i, finish[i], want[i])
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	s := New(Config{})
	r := NewResource(s, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(p *Proc) {
			r.With(p, 10*time.Microsecond, nil)
			finish = append(finish, p.Now())
		})
	}
	s.Run()
	if finish[len(finish)-1] != Time(20*time.Microsecond) {
		t.Fatalf("4 jobs on 2 units finished at %v, want 20µs", finish[len(finish)-1])
	}
}

// TestResourceKilledWaiterLeavesNoUnit: a Proc that unwinds from Acquire
// gives the resource back what its wait took. Killed mid-run, it unwinds only
// when Release hands it the unit, which must pass on to the next acquirer;
// shut down while still queued, its queue entry must go.
func TestResourceKilledWaiterLeavesNoUnit(t *testing.T) {
	t.Run("killed", func(t *testing.T) {
		s := New(Config{})
		r := NewResource(s, 1)
		s.Spawn("holder", func(p *Proc) { r.With(p, 2*time.Microsecond, nil) })
		victim := s.Spawn("victim", func(p *Proc) {
			r.With(p, time.Microsecond, nil)
			t.Error("killed victim acquired the resource")
		})
		finished := Time(-1)
		s.Spawn("later", func(p *Proc) {
			p.Sleep(time.Microsecond)
			r.With(p, time.Microsecond, nil)
			finished = p.Now()
		})
		s.After(time.Microsecond, victim.Kill)
		s.Run()
		if finished != Time(3*time.Microsecond) {
			t.Fatalf("later acquirer finished at %v, want 3µs (inUse=%d waiting=%d)", finished, r.InUse(), r.Waiting())
		}
		if r.InUse() != 0 || r.Waiting() != 0 || s.Live() != 0 {
			t.Fatalf("inUse=%d waiting=%d live=%d, want all 0", r.InUse(), r.Waiting(), s.Live())
		}
	})
	t.Run("shut down while queued", func(t *testing.T) {
		s := New(Config{})
		r := NewResource(s, 1)
		// Spawned first, so Shutdown unwinds it before the holder releases.
		s.Spawn("victim", func(p *Proc) { p.Sleep(0); r.Acquire(p) })
		s.Spawn("holder", func(p *Proc) { r.With(p, time.Hour, nil) })
		s.RunUntil(Time(time.Microsecond))
		if r.Waiting() != 1 {
			t.Fatalf("waiting = %d before Shutdown, want 1", r.Waiting())
		}
		s.Shutdown()
		if r.InUse() != 0 || r.Waiting() != 0 {
			t.Fatalf("inUse=%d waiting=%d after Shutdown, want 0 and 0", r.InUse(), r.Waiting())
		}
	})
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 0)
	r := NewResource(s, 1)
	s.Spawn("chan-blocked", func(p *Proc) { ch.Get(p) })
	s.Spawn("holder", func(p *Proc) { r.Acquire(p); p.Sleep(time.Hour) })
	s.Spawn("res-blocked", func(p *Proc) { p.Sleep(0); r.Acquire(p) })
	s.Spawn("timer-blocked", func(p *Proc) { p.Sleep(time.Hour) })
	s.RunUntil(Time(time.Millisecond))
	if s.Live() != 4 {
		t.Fatalf("want 4 live procs before shutdown, got %d", s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 {
		t.Fatalf("%d procs leaked after Shutdown", s.Live())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := New(Config{Seed: 42}), New(Config{Seed: 42})
	for i := 0; i < 100; i++ {
		if a.Rand().Uint64() != b.Rand().Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(Config{Seed: 43})
	same := true
	for i := 0; i < 10; i++ {
		if New(Config{Seed: 42}).Rand().Uint64() == c.Rand().Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// Property: for any set of (time, payload) pairs, the engine executes them in
// stable-sorted order by time.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		s := New(Config{})
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, d := range delays {
			i, at := i, Time(d)
			s.At(at, func() { got = append(got, rec{at, i}) })
		}
		s.Run()
		if len(got) != len(delays) {
			return false
		}
		want := make([]rec, len(got))
		copy(want, got)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].idx < want[j].idx
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// And times must be nondecreasing with idx order stable within ties.
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventOrderDifferential checks the event queues against a stable (time,
// scheduling order) sort on seeded schedules that events grow from inside
// other events: same-instant bursts, short random delays, runs of one long
// timeout (the lane's shape), and rare far outliers that push the lane's
// tail past everything else. The driver stops RunUntil between events and
// schedules at the new Now() after each stop. Every queue gets a large share
// of the events, and lane heads often tie an iq head's time with a smaller
// seq.
func TestEventOrderDifferential(t *testing.T) {
	const budget = 20000 // events scheduled per seed
	type rec struct {
		at Time
		id int
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		s := New(Config{Seed: seed})
		var got []rec
		scheduled := 0
		// A chain event is a process step: it continues its chain after a
		// short random delay and arms zero to two wait timeouts, all with
		// the same long duration. Any event may fire a same-instant burst.
		var schedule func(at Time, chain bool)
		schedule = func(at Time, chain bool) {
			id := scheduled
			scheduled++
			s.At(at, func() {
				if s.Now() != at {
					t.Fatalf("seed %d: event %d for %v ran at %v", seed, id, at, s.Now())
				}
				got = append(got, rec{at, id})
				if scheduled >= budget {
					return
				}
				if rng.IntN(8) == 0 {
					for k := 2 + rng.IntN(6); k > 0; k-- {
						schedule(at, false)
					}
				}
				if !chain {
					return
				}
				schedule(at+Time(1+rng.IntN(2000)), true)
				for k := rng.IntN(3); k > 0; k-- {
					schedule(at+10_000, false)
				}
				if rng.IntN(2000) == 0 {
					schedule(at+Time(50_000+rng.IntN(50_000)), false)
				}
			})
		}
		for i := 0; i < 16; i++ {
			schedule(Time(rng.IntN(100)), true)
		}
		for s.Pending() > 0 {
			limit := s.Now()
			switch rng.IntN(3) {
			case 1:
				limit += Time(rng.IntN(5_000))
			case 2:
				limit += Time(rng.IntN(100_000))
			}
			s.RunUntil(limit)
			if s.Now() != limit || s.TimeRegressions() != 0 || s.Pending() != scheduled-len(got) {
				t.Fatalf("seed %d: RunUntil(%v) left now=%v regressions=%d pending=%d, want %v, 0, %d",
					seed, limit, s.Now(), s.TimeRegressions(), s.Pending(), limit, scheduled-len(got))
			}
			if scheduled < budget {
				schedule(s.Now(), false)
			}
		}
		if len(got) != scheduled {
			t.Fatalf("seed %d: ran %d of %d events", seed, len(got), scheduled)
		}
		want := append([]rec(nil), got...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].id < want[j].id
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d ran %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

// Property: a Chan never loses, duplicates, or reorders values for any
// producer/consumer timing pattern.
func TestChanIntegrityProperty(t *testing.T) {
	prop := func(prodDelays, consDelays []uint8, capacity uint8) bool {
		n := len(prodDelays)
		if n == 0 {
			return true
		}
		s := New(Config{})
		ch := NewChan[int](s, int(capacity%8))
		var got []int
		s.Spawn("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Duration(prodDelays[i]) * time.Nanosecond)
				ch.Put(p, i)
			}
		})
		s.Spawn("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				if i < len(consDelays) {
					p.Sleep(time.Duration(consDelays[i]) * time.Nanosecond)
				}
				got = append(got, ch.Get(p))
			}
		})
		s.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500 * time.Nanosecond).String(); got != "1.5µs" {
		t.Fatalf("got %q", got)
	}
	if Time(time.Second).Sub(Time(time.Millisecond)) != 999*time.Millisecond {
		t.Fatal("Sub arithmetic wrong")
	}
}

func TestGateVersionedWakeup(t *testing.T) {
	s := New(Config{})
	g := NewGate(s)
	var wokeAt Time
	s.Spawn("waiter", func(p *Proc) {
		v := g.Version()
		g.Wait(p, v)
		wokeAt = p.Now()
	})
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		g.Fire()
	})
	s.Run()
	if wokeAt != Time(10*time.Microsecond) {
		t.Fatalf("woke at %v", wokeAt)
	}
}

// The lost-wakeup race: a fire between Version() and Wait() must not block.
func TestGateNoLostWakeup(t *testing.T) {
	s := New(Config{})
	g := NewGate(s)
	returned := false
	s.Spawn("waiter", func(p *Proc) {
		v := g.Version()
		p.Sleep(5 * time.Microsecond) // fire happens in here
		g.Wait(p, v)                  // must return immediately
		returned = true
	})
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		g.Fire()
	})
	s.RunUntil(Time(time.Second))
	s.Shutdown()
	if !returned {
		t.Fatal("waiter blocked despite intervening fire")
	}
}

func TestGateWaitTimeout(t *testing.T) {
	s := New(Config{})
	g := NewGate(s)
	var first, second bool
	s.SpawnTask("waiter", func(tk *Task) {
		g.WaitTimeoutT(tk, g.Version(), 5*time.Microsecond, func(fired bool) { // no fire: timeout
			first = fired
			g.WaitTimeoutT(tk, g.Version(), time.Second, func(fired bool) { second = fired }) // fire wins
		})
	})
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(20 * time.Microsecond)
		g.Fire()
	})
	s.RunUntil(Time(time.Second))
	s.Shutdown()
	if first {
		t.Fatal("first wait should have timed out")
	}
	if !second {
		t.Fatal("second wait should have been fired")
	}
}

func TestGateFireWakesAllWaiters(t *testing.T) {
	s := New(Config{})
	g := NewGate(s)
	woken := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			g.Wait(p, g.Version())
			woken++
		})
	}
	s.Spawn("f", func(p *Proc) {
		p.Sleep(time.Microsecond)
		if g.Waiting() != 5 {
			t.Errorf("waiting = %d", g.Waiting())
		}
		g.Fire()
	})
	s.Run()
	if woken != 5 {
		t.Fatalf("woke %d/5", woken)
	}
}

func TestAccessors(t *testing.T) {
	s := New(Config{})
	if s.Pending() != 0 {
		t.Fatal("fresh sim has pending events")
	}
	s.After(time.Microsecond, func() {})
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	p := s.Spawn("named-proc", func(p *Proc) {
		if p.Sim() != s {
			t.Error("Proc.Sim wrong")
		}
		p.Sleep(time.Millisecond)
	})
	if p.Name() != "named-proc" {
		t.Fatalf("name %q", p.Name())
	}
	if err := (killedErr{name: "x"}); err.Error() != "sim: process x killed" {
		t.Fatalf("killedErr %q", err.Error())
	}
	s.RunUntil(Time(10 * time.Microsecond))
	s.Shutdown()
}

func TestKillUnwindsOneProc(t *testing.T) {
	s := New(Config{})
	reached := false
	p := s.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		reached = true
	})
	survived := false
	s.Spawn("bystander", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		survived = true
	})
	s.After(time.Microsecond, func() { p.Kill() })
	s.Run()
	if reached {
		t.Fatal("killed proc continued past its sleep")
	}
	if !survived {
		t.Fatal("kill leaked to other procs")
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d", s.Live())
	}
}

func TestChanTryOps(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 1)
	if _, ok := ch.TryGet(); ok {
		t.Fatal("TryGet on empty must miss")
	}
	if !ch.TryPut(1) {
		t.Fatal("TryPut into empty must succeed")
	}
	if ch.Len() != 1 {
		t.Fatalf("len = %d", ch.Len())
	}
	if ch.TryPut(2) {
		t.Fatal("TryPut into full must fail")
	}
	if v, ok := ch.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet got %v/%v", v, ok)
	}
	// TryPut with a blocked getter hands off directly.
	var got int
	s.Spawn("getter", func(p *Proc) { got = ch.Get(p) })
	s.Spawn("putter", func(p *Proc) {
		p.Sleep(time.Microsecond)
		if !ch.TryPut(42) {
			t.Error("handoff TryPut failed")
		}
	})
	s.Run()
	if got != 42 {
		t.Fatalf("handoff got %d", got)
	}
}

func TestChanPutUnblocksBufferedWaiter(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 2)
	var order []int
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			ch.Put(p, i)
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		for i := 0; i < 5; i++ {
			order = append(order, ch.Get(p))
		}
	})
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v", order)
		}
	}
}

func TestResourceTryAcquireAndCounters(t *testing.T) {
	s := New(Config{})
	r := NewResource(s, 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on free resource")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on busy resource")
	}
	if r.InUse() != 1 || r.Waiting() != 0 {
		t.Fatalf("inuse=%d waiting=%d", r.InUse(), r.Waiting())
	}
	s.Spawn("waiter", func(p *Proc) { r.Acquire(p); r.Release() })
	s.RunUntil(Time(time.Microsecond))
	if r.Waiting() != 1 {
		t.Fatalf("waiting = %d", r.Waiting())
	}
	r.Release()
	s.Run()
	if r.InUse() != 0 {
		t.Fatalf("inuse = %d after all released", r.InUse())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release without Acquire must panic")
			}
		}()
		r.Release()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-capacity resource must panic")
			}
		}()
		NewResource(s, 0)
	}()
}

func TestRunUntilCond(t *testing.T) {
	s := New(Config{})
	hits := 0
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			hits++
		}
	})
	s.RunUntilCond(Time(time.Second), time.Millisecond, func() bool { return hits >= 5 })
	if hits < 5 || hits > 7 {
		t.Fatalf("stopped at hits=%d, want ~5", hits)
	}
	s.Shutdown()
}

// RunUntilCond with a zero or negative interval could never advance the
// clock; it must panic rather than spin. The call runs in a goroutine with a
// deadline so that a spinning implementation fails the test instead of
// hanging the suite.
func TestRunUntilCondRejectsNonPositiveCheck(t *testing.T) {
	for _, check := range []time.Duration{0, -time.Millisecond} {
		s := New(Config{})
		s.After(time.Millisecond, func() {})
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			s.RunUntilCond(Time(time.Second), check, func() bool { return false })
		}()
		select {
		case r := <-done:
			if r == nil {
				t.Fatalf("check=%v: RunUntilCond returned instead of panicking", check)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("check=%v: RunUntilCond did not return within 2s", check)
		}
	}
}
