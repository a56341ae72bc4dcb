// Package sim implements a deterministic discrete-event simulator.
//
// The simulator advances a virtual clock by executing events in
// (timestamp, sequence-number) order. On top of the raw event loop it offers
// two process substrates that coexist on the same heap and interoperate
// freely:
//
//   - Coroutine Procs (Spawn): each process is a goroutine, but the
//     scheduler guarantees that at most one goroutine belonging to a
//     simulation runs at any instant, handing control back and forth
//     explicitly through the per-proc resume channel and the shared yield
//     channel. Natural straight-line code; two channel operations and a
//     goroutine switch per scheduler step.
//   - Run-to-completion Tasks (SpawnTask, see task.go): state-machine
//     processes whose continuations the scheduler calls inline in its event
//     loop — zero goroutine switches, zero channel operations per step.
//     Continuation-passing style at blocking points; built for always-on
//     hot-path processes.
//
// Both substrates share channels, gates, resources, and the seeded random
// source, and consume scheduler sequence numbers identically, so a process
// ported between them leaves simulation output byte-identical. Together with
// the seeded random source this makes every simulation bit-reproducible.
//
// The event loop is built for throughput: events are plain values in an
// inlined 4-ary min-heap (no container/heap interface boxing, no per-event
// allocation), resuming a blocked Proc schedules a direct proc-step event
// instead of a closure, waking a Task schedules its one pre-bound activation
// thunk, and the waiter nodes of channels and gates recycle through free
// lists. Steady-state scheduling therefore allocates nothing on either
// substrate.
//
// Typical usage:
//
//	s := sim.New(sim.Config{Seed: 1})
//	s.Spawn("server", func(p *sim.Proc) {
//	    for {
//	        req := queue.Get(p)    // blocks in virtual time
//	        p.Sleep(10 * time.Microsecond)
//	        replyTo.Put(p, req)
//	    }
//	})
//	s.RunUntil(sim.Time(time.Second))
//	s.Shutdown()
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration converts d to a Time span. It exists for symmetry with time
// package arithmetic: Time(0).Add(d).
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed between u and t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the time like a time.Duration for readability.
func (t Time) String() string { return time.Duration(t).String() }

// Config parameterizes a simulation.
type Config struct {
	// Seed for the deterministic random source. The zero seed is valid and
	// distinct from seed 1.
	Seed uint64
}

// Sim is a single-threaded discrete-event simulation instance. A Sim must not
// be shared across OS concurrency: all interaction happens either before Run,
// from inside event callbacks, or from processes spawned on this Sim.
type Sim struct {
	now    Time
	events []event // 4-ary min-heap ordered by (at, seq)
	seq    uint64
	rng    *rand.Rand

	// iq is the same-instant fast path: events scheduled at exactly the
	// current timestamp — Proc resume steps, Task activations, and plain
	// callbacks alike — land in this flat FIFO instead of the heap, so a
	// k-event burst of immediate handoffs (channel rendezvous, gate fires,
	// resource releases) costs O(k) appends and pops rather than O(k log n)
	// heap operations. Entries always satisfy at == now and carry strictly
	// increasing seq values greater than any same-timestamp heap entry, so
	// draining iq in FIFO order — after any older heap events at the same
	// instant — preserves the exact (at, seq) total order of a pure heap:
	// results are byte-identical. Same-instant events from the two process
	// substrates have no tie-break of their own: a Task activation and a
	// Proc step at the same timestamp run purely in seq order, i.e. the
	// order their wakes were scheduled. iqHead indexes the next entry; the
	// slice resets (keeping capacity) whenever it fully drains, which
	// happens before the clock can advance.
	iq     []event
	iqHead int

	executed uint64

	// timeRegressions counts events that executed with a timestamp earlier
	// than the clock — impossible in a correct heap, so any non-zero value
	// is an ordering bug. Maintained unconditionally: it is one branch per
	// event, and the invariant layer (internal/check) asserts it is zero.
	timeRegressions uint64

	// onShutdown callbacks run once inside Shutdown, after every process has
	// unwound but before the event heap is dropped — the point where
	// end-of-run invariants (request conservation, in-flight accounting) see
	// final, stable state.
	onShutdown []func()
	shutdown   bool

	// yield is signalled by the currently running coroutine process when it
	// blocks or exits, returning control to the scheduler. Tasks never touch
	// it: their continuations run inline in the event loop.
	yield chan struct{}

	// order lists spawned processes and tasks in spawn order (lazily
	// compacted), so Shutdown unwinds them deterministically regardless of
	// substrate.
	order    []runner
	nprocs   int
	stopping bool

	timers []*timer // free list of wait-timeout records
}

// runner is one spawn-order entry: a coroutine Proc or a run-to-completion
// Task (exactly one field is set).
type runner struct {
	p *Proc
	t *Task
}

// exited reports whether the entry's process has finished.
func (r runner) exited() bool {
	if r.p != nil {
		return r.p.done
	}
	return r.t.done
}

// addRunner tracks spawn order for deterministic Shutdown; it compacts the
// exited entries once they dominate so long simulations with process churn
// stay bounded.
func (s *Sim) addRunner(r runner) {
	if len(s.order) >= 64 && len(s.order) >= 2*s.nprocs {
		live := s.order[:0]
		for _, q := range s.order {
			if !q.exited() {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(s.order); i++ {
			s.order[i] = runner{}
		}
		s.order = live
	}
	s.order = append(s.order, r)
	s.nprocs++
}

// New creates an empty simulation at time zero.
func New(cfg Config) *Sim {
	return &Sim{
		rng:   rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15)),
		yield: make(chan struct{}, 1),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed reports the total number of events executed so far.
func (s *Sim) Executed() uint64 { return s.executed }

// TimeRegressions reports how many events ran with a timestamp before the
// clock. Always zero unless the event heap's total order is broken.
func (s *Sim) TimeRegressions() uint64 { return s.timeRegressions }

// OnShutdown registers fn to run once during Shutdown, after all processes
// have unwound and before the event heap is dropped. Hooks run in
// registration order.
func (s *Sim) OnShutdown(fn func()) { s.onShutdown = append(s.onShutdown, fn) }

// event is one scheduled entry. Resuming a blocked coroutine process stores
// the process directly; task activations, channel wake thunks and wait
// timeouts carry a pre-bound func; only irregular callbacks (user events)
// carry a fresh closure. Events are heap values, never allocated
// individually.
type event struct {
	at   Time
	seq  uint64
	proc *Proc  // non-nil: step this process
	fn   func() // otherwise: run this callback
}

// eventLess orders events by (timestamp, sequence): the unique total order
// that makes runs bit-reproducible regardless of heap shape.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e into the 4-ary heap (inlined sift-up).
func (s *Sim) push(e event) {
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.events = h
}

// popMin removes and returns the earliest event (inlined sift-down). The
// caller must have checked len(s.events) > 0.
func (s *Sim) popMin() event {
	h := s.events
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release proc/closure references
	h = h[:last]
	i := 0
	for {
		first := i<<2 + 1
		if first >= len(h) {
			break
		}
		m := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if eventLess(&h[c], &h[m]) {
				m = c
			}
		}
		if !eventLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.events = h
	return min
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	if t == s.now {
		s.iq = append(s.iq, event{at: t, seq: s.seq, fn: fn})
		return
	}
	s.push(event{at: t, seq: s.seq, fn: fn})
}

// atStep schedules a resume of p at t — the allocation-free fast path used
// by every Proc-blocking primitive in this package.
func (s *Sim) atStep(t Time, p *Proc) {
	s.seq++
	if t == s.now {
		s.iq = append(s.iq, event{at: t, seq: s.seq, proc: p})
		return
	}
	s.push(event{at: t, seq: s.seq, proc: p})
}

// atFn schedules fn at t — the internal hand-off path for task activations
// and waiter wake thunks. These are pre-bound funcs, so this path is as
// allocation-free as atStep; it skips At's past-check because callers always
// schedule at or after now.
func (s *Sim) atFn(t Time, fn func()) {
	s.seq++
	if t == s.now {
		s.iq = append(s.iq, event{at: t, seq: s.seq, fn: fn})
		return
	}
	s.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now.Add(d), fn) }

// Run executes events until the event heap is empty.
func (s *Sim) Run() { s.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamps <= limit, advancing the clock. It
// returns when the heap is empty or the next event lies beyond limit; in the
// latter case the clock is left at limit.
func (s *Sim) RunUntil(limit Time) {
	for {
		if s.iqHead < len(s.iq) {
			// The same-instant FIFO has work at the current timestamp. It
			// runs next unless the heap still holds an older event — same
			// instant, smaller seq, pushed before the clock arrived here —
			// in which case that event must go first to preserve the global
			// (at, seq) order.
			if len(s.events) > 0 && eventLess(&s.events[0], &s.iq[s.iqHead]) {
				s.runEvent(s.popMin())
				continue
			}
			e := s.iq[s.iqHead]
			s.iq[s.iqHead] = event{} // release proc/closure references
			s.iqHead++
			if s.iqHead == len(s.iq) {
				s.iq = s.iq[:0]
				s.iqHead = 0
			}
			s.runEvent(e)
			continue
		}
		if len(s.events) == 0 {
			break
		}
		if s.events[0].at > limit {
			s.now = limit
			return
		}
		s.runEvent(s.popMin())
	}
	if s.now < limit && limit < Time(1<<62-1) {
		s.now = limit
	}
}

// runEvent advances the clock to e.at and executes e.
func (s *Sim) runEvent(e event) {
	if e.at < s.now {
		s.timeRegressions++
	}
	s.now = e.at
	s.executed++
	if e.proc != nil {
		s.step(e.proc)
	} else {
		e.fn()
	}
}

// Pending reports the number of scheduled events.
func (s *Sim) Pending() int { return len(s.events) + len(s.iq) - s.iqHead }

// ---------------------------------------------------------------------------
// Processes

// Proc is a simulated process: a goroutine that runs under the simulation
// scheduler. All blocking methods (Sleep, Chan.Get, Resource.Acquire, ...)
// take the Proc so that control can be handed back to the scheduler.
type Proc struct {
	sim    *Sim
	name   string
	resume chan struct{}
	killed bool
	done   bool
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time (convenience for p.Sim().Now()).
func (p *Proc) Now() Time { return p.sim.now }

// killedErr is the panic payload used to unwind killed processes.
type killedErr struct{ name string }

func (k killedErr) Error() string { return "sim: process " + k.name + " killed" }

// Spawn starts fn as a new process at the current virtual time. The process
// begins executing when the scheduler reaches its start event.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{}, 1)}
	s.addRunner(runner{p: p})
	go func() {
		<-p.resume
		defer func() {
			p.done = true
			s.nprocs--
			if r := recover(); r != nil {
				if _, ok := r.(killedErr); ok {
					s.yield <- struct{}{}
					return
				}
				// Re-panic on the scheduler side would deadlock; print and
				// crash the whole program instead, preserving the trace.
				panic(r)
			}
			s.yield <- struct{}{}
		}()
		fn(p)
	}()
	s.atStep(s.now, p)
	return p
}

// step transfers control to p and blocks until p yields or exits.
func (s *Sim) step(p *Proc) {
	if p.done {
		return
	}
	if s.stopping {
		p.killed = true
	}
	p.resume <- struct{}{}
	<-s.yield
}

// block suspends the calling process until the scheduler resumes it.
func (p *Proc) block() {
	p.sim.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killedErr{p.name})
	}
}

// Sleep suspends the process for d of virtual time. Negative or zero
// durations still yield to the scheduler at the current timestamp.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.atStep(s.now.Add(d), p)
	p.block()
}

// Yield gives other events scheduled at the current instant a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill marks p so that its next blocking operation unwinds the process.
// Killing an exited process is a no-op.
func (p *Proc) Kill() { p.killed = true }

// Shutdown kills all live processes and tasks, unwinding each at its
// blocking point in spawn order, and drains any events they schedule. Call
// after RunUntil to avoid leaking goroutines; the Sim must not be used
// afterwards.
func (s *Sim) Shutdown() {
	s.stopping = true
	for _, r := range s.order {
		if r.p != nil {
			r.p.killed = true
		} else {
			r.t.killed = true
		}
	}
	// Unwind every blocked process in spawn order. Coroutine procs blocked
	// on channels/resources are tracked there; ones blocked on timers will
	// be woken by their scheduled events, but those may be far in the
	// future, so we resume each live proc directly. Tasks have no stack to
	// unwind: killing one deregisters its waiter and runs its OnKill hook.
	for _, r := range s.order {
		if r.p != nil {
			s.step(r.p)
		} else {
			r.t.kill()
		}
	}
	if !s.shutdown {
		s.shutdown = true
		for _, fn := range s.onShutdown {
			fn()
		}
		s.onShutdown = nil
	}
	// Drop remaining events; their closures may reference dead procs.
	s.events = nil
	s.iq = nil
	s.iqHead = 0
	s.order = nil
}

// Live reports the number of live (spawned, not yet exited) processes.
func (s *Sim) Live() int { return s.nprocs }

// ---------------------------------------------------------------------------
// Channels

// Chan is a FIFO message queue operating in virtual time. A capacity of 0
// means unbounded. Chan is the simulation analogue of a Go channel; all
// operations must be called from processes of the same Sim.
type Chan[T any] struct {
	sim     *Sim
	cap     int
	buf     []T // FIFO buffer; bufHead is the index of the oldest item
	bufHead int
	getters waiterQ[T]
	putters waiterQ[T]
	free    []*waiter[T]
}

// NewChan creates a queue. capacity == 0 means unbounded (Put never blocks).
func NewChan[T any](s *Sim, capacity int) *Chan[T] {
	return &Chan[T]{sim: s, cap: capacity}
}

type waiter[T any] struct {
	p   *Proc // coroutine waiter: the proc to step on rendezvous
	t   *Task // task waiter: the task whose continuation the wake runs
	val T     // value being delivered (getter: filled by putter; putter: value to enqueue)
	ok  bool  // set when the rendezvous happened
	// kv/kn are the task-side continuations: kv receives the delivered
	// value (getter), kn resumes a parked putter. wake is the node's
	// reusable event thunk, bound once per node (see getTaskWaiter) and
	// kept across the free list so steady-state parking allocates nothing.
	kv   func(T)
	kn   func()
	wake func()
	// gen guards recycled waiters against stale timeout events: it is
	// bumped when the waiter returns to the free list, so a pending timer
	// that recorded the old generation becomes a no-op.
	gen uint64
	// expire is the node's GetTimeout timeout body, bound once like wake.
	expire   func(gen uint64)
	timedOut bool
}

// getWaiter takes a node from the free list (or allocates the first time).
func (c *Chan[T]) getWaiter(p *Proc) *waiter[T] {
	if n := len(c.free); n > 0 {
		w := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		w.p = p
		return w
	}
	return &waiter[T]{p: p}
}

// putWaiter recycles a node whose wait has fully resolved. The wake and
// expire thunks survive recycling (they are bound to the node, not the wait).
func (c *Chan[T]) putWaiter(w *waiter[T]) {
	var zero T
	w.p, w.t, w.kv, w.kn, w.val, w.ok, w.timedOut = nil, nil, nil, nil, zero, false, false
	w.gen++
	c.free = append(c.free, w)
}

// waiterQ is a FIFO of waiters that reuses its backing array: popping
// advances a head index instead of re-slicing, and the array rewinds whenever
// the queue drains, so steady-state churn never reallocates.
type waiterQ[T any] struct {
	q    []*waiter[T]
	head int
}

func (w *waiterQ[T]) push(x *waiter[T]) { w.q = append(w.q, x) }
func (w *waiterQ[T]) pop() *waiter[T] {
	if w.head == len(w.q) {
		return nil
	}
	x := w.q[w.head]
	w.q[w.head] = nil
	w.head++
	if w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	} else if w.head > 32 && w.head*2 >= len(w.q) {
		// Queue stays non-empty: compact (amortized O(1)) so the backing
		// array stays bounded.
		n := copy(w.q, w.q[w.head:])
		for i := n; i < len(w.q); i++ {
			w.q[i] = nil
		}
		w.q, w.head = w.q[:n], 0
	}
	return x
}
func (w *waiterQ[T]) remove(x *waiter[T]) {
	for i := w.head; i < len(w.q); i++ {
		if w.q[i] == x {
			copy(w.q[i:], w.q[i+1:])
			w.q[len(w.q)-1] = nil
			w.q = w.q[:len(w.q)-1]
			if w.head == len(w.q) {
				w.q, w.head = w.q[:0], 0
			}
			return
		}
	}
}
func (w *waiterQ[T]) len() int { return len(w.q) - w.head }

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return len(c.buf) - c.bufHead }

// popBuf removes and returns the oldest buffered item, rewinding the backing
// array once the buffer drains so steady-state traffic never reallocates.
func (c *Chan[T]) popBuf() T {
	v := c.buf[c.bufHead]
	var zero T
	c.buf[c.bufHead] = zero
	c.bufHead++
	if c.bufHead == len(c.buf) {
		c.buf, c.bufHead = c.buf[:0], 0
	} else if c.bufHead > 32 && c.bufHead*2 >= len(c.buf) {
		// Buffer stays non-empty: compact (amortized O(1)) so the backing
		// array stays bounded.
		n := copy(c.buf, c.buf[c.bufHead:])
		for i := n; i < len(c.buf); i++ {
			c.buf[i] = zero
		}
		c.buf, c.bufHead = c.buf[:n], 0
	}
	return v
}

// deliver hands v to a popped getter, waking it on its own substrate: a
// proc-step event for coroutine waiters, the node's wake thunk for task
// waiters. Both consume exactly one scheduler slot.
func (c *Chan[T]) deliver(w *waiter[T], v T) {
	w.val, w.ok = v, true
	if w.p != nil {
		c.sim.atStep(c.sim.now, w.p)
	} else {
		c.sim.atFn(c.sim.now, w.wake)
	}
}

// Put enqueues v, blocking while the queue is at capacity.
func (c *Chan[T]) Put(p *Proc, v T) {
	if w := c.getters.pop(); w != nil {
		// Direct hand-off to a waiting getter.
		c.deliver(w, v)
		return
	}
	if c.cap == 0 || c.Len() < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	w := c.getWaiter(p)
	w.val = v
	c.putters.push(w)
	defer func() {
		if !w.ok {
			// Unwound by Kill before the rendezvous: leave no dangling
			// queue entry behind.
			c.putters.remove(w)
		}
		c.putWaiter(w)
	}()
	p.block()
}

// TryPut enqueues v if the queue has room or a waiting getter, without
// blocking. It reports whether the value was accepted.
func (c *Chan[T]) TryPut(v T) bool {
	if w := c.getters.pop(); w != nil {
		c.deliver(w, v)
		return true
	}
	if c.cap == 0 || c.Len() < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// admitPutter moves a blocked putter's value into the freed buffer slot.
func (c *Chan[T]) admitPutter() {
	if w := c.putters.pop(); w != nil {
		w.ok = true
		c.buf = append(c.buf, w.val)
		if w.p != nil {
			c.sim.atStep(c.sim.now, w.p)
		} else {
			c.sim.atFn(c.sim.now, w.wake)
		}
	}
}

// Get dequeues the oldest item, blocking while the queue is empty.
func (c *Chan[T]) Get(p *Proc) T {
	if c.Len() > 0 {
		v := c.popBuf()
		c.admitPutter()
		return v
	}
	w := c.getWaiter(p)
	c.getters.push(w)
	defer func() {
		if !w.ok {
			c.getters.remove(w)
		}
		c.putWaiter(w)
	}()
	p.block()
	return w.val
}

// GetBatch dequeues up to len(buf) items: it blocks for the first, then
// drains whatever else is immediately available without blocking or letting
// the clock advance. Returns the number of items stored — at least 1 for a
// non-empty buf. One wakeup absorbs a whole queued burst, which is what
// makes a k-message drain cost O(1) scheduler handoffs instead of O(k).
func (c *Chan[T]) GetBatch(p *Proc, buf []T) int {
	if len(buf) == 0 {
		return 0
	}
	buf[0] = c.Get(p)
	n := 1
	for n < len(buf) {
		v, ok := c.TryGet()
		if !ok {
			break
		}
		buf[n] = v
		n++
	}
	return n
}

// PutBatch enqueues every value in order, blocking as capacity requires.
// With the same-instant scheduler fast path, a batch put into a drained
// queue wakes the consumer once and buffers the rest.
func (c *Chan[T]) PutBatch(p *Proc, vals []T) {
	for _, v := range vals {
		c.Put(p, v)
	}
}

// TryGet dequeues without blocking, reporting whether a value was available.
func (c *Chan[T]) TryGet() (T, bool) {
	if c.Len() == 0 {
		var zero T
		return zero, false
	}
	v := c.popBuf()
	c.admitPutter()
	return v, true
}

// GetTimeout dequeues with a deadline. The boolean result reports whether a
// value was received (false means the timeout elapsed first).
func (c *Chan[T]) GetTimeout(p *Proc, d time.Duration) (T, bool) {
	var zero T
	if v, ok := c.TryGet(); ok {
		return v, true
	}
	if d <= 0 {
		return zero, false
	}
	w := c.getWaiter(p)
	c.getters.push(w)
	if w.expire == nil {
		w.expire = func(gen uint64) { c.expireWait(w, gen) }
	}
	c.sim.timeout(d, w.gen, w.expire)
	defer func() {
		if !w.ok && !w.timedOut {
			c.getters.remove(w)
		}
		c.putWaiter(w)
	}()
	p.block()
	if w.timedOut {
		return zero, false
	}
	return w.val, true
}

// expireWait is the body of a GetTimeout timer armed at generation gen: it
// times the wait out and resumes the getter inside the timer event, unless
// the wait already resolved.
func (c *Chan[T]) expireWait(w *waiter[T], gen uint64) {
	if w.gen != gen || w.ok || w.timedOut {
		return
	}
	w.timedOut = true
	c.getters.remove(w)
	c.sim.step(w.p)
}

// timer is one pending wait timeout. Records recycle through the
// simulation's free list and fire is bound once per record, so arming a
// timeout allocates nothing once warm. A record names the waiter
// generation it was armed at, and the waiter's expire body ignores a
// generation that is no longer current: a timer that outlives its wait
// fires as a no-op, even when the waiter node already serves another wait.
type timer struct {
	s      *Sim
	gen    uint64
	expire func(gen uint64)
	fire   func() // pre-bound r.run
}

// timeout schedules expire(gen) d from now. It consumes one scheduler slot,
// like the At call it replaces.
func (s *Sim) timeout(d time.Duration, gen uint64, expire func(gen uint64)) {
	var r *timer
	if n := len(s.timers); n > 0 {
		r = s.timers[n-1]
		s.timers[n-1] = nil
		s.timers = s.timers[:n-1]
	} else {
		r = &timer{s: s}
		r.fire = r.run
	}
	r.gen, r.expire = gen, expire
	s.At(s.now.Add(d), r.fire)
}

func (r *timer) run() {
	gen, expire := r.gen, r.expire
	r.expire = nil
	r.s.timers = append(r.s.timers, r)
	expire(gen)
}

// ---------------------------------------------------------------------------
// Resources (counting semaphores with FIFO waiters)

// Resource models a pool of n interchangeable units (CPU cores, DMA engines,
// driver locks...). Acquire blocks until a unit is free; units are granted in
// FIFO order.
type Resource struct {
	sim     *Sim
	total   int
	inUse   int
	waiters []resWaiter // FIFO across both substrates; wHead indexes the oldest
	wHead   int
}

// resWaiter is one blocked acquirer: a coroutine proc or a task (whose
// continuation was armed by AcquireT). Exactly one field is set.
type resWaiter struct {
	p *Proc
	t *Task
}

// NewResource creates a resource pool with n units. n must be positive.
func NewResource(s *Sim, n int) *Resource {
	if n <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, total: n}
}

// Acquire takes one unit, blocking until available.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.total {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, resWaiter{p: p})
	p.block()
}

// TryAcquire takes one unit if immediately available.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.total {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.wHead < len(r.waiters) {
		w := r.waiters[r.wHead]
		r.waiters[r.wHead] = resWaiter{}
		r.wHead++
		if r.wHead == len(r.waiters) {
			r.waiters, r.wHead = r.waiters[:0], 0
		} else if r.wHead > 32 && r.wHead*2 >= len(r.waiters) {
			// Never-empty wait queue: compact (amortized O(1)) so the
			// backing array stays bounded.
			n := copy(r.waiters, r.waiters[r.wHead:])
			for i := n; i < len(r.waiters); i++ {
				r.waiters[i] = resWaiter{}
			}
			r.waiters, r.wHead = r.waiters[:n], 0
		}
		// Unit passes directly to the waiter; inUse stays constant.
		if w.p != nil {
			r.sim.atStep(r.sim.now, w.p)
		} else {
			r.sim.atFn(r.sim.now, w.t.runEv)
		}
		return
	}
	if r.inUse == 0 {
		panic("sim: Release without Acquire")
	}
	r.inUse--
}

// InUse reports the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Waiting reports the number of blocked acquirers.
func (r *Resource) Waiting() int { return len(r.waiters) - r.wHead }

// With runs fn while holding one unit, charging exec virtual time.
func (r *Resource) With(p *Proc, exec time.Duration, fn func()) {
	r.Acquire(p)
	defer r.Release()
	if exec > 0 {
		p.Sleep(exec)
	}
	if fn != nil {
		fn()
	}
}

// ---------------------------------------------------------------------------
// Signals

// Signal is a broadcast edge-trigger: Wait blocks until the next Fire.
type Signal struct {
	sim     *Sim
	waiters []*Proc
}

// NewSignal creates a signal bound to s.
func NewSignal(s *Sim) *Signal { return &Signal{sim: s} }

// Wait blocks the calling process until the next Fire.
func (sg *Signal) Wait(p *Proc) {
	sg.waiters = append(sg.waiters, p)
	p.block()
}

// Fire wakes every currently blocked waiter at the current instant.
func (sg *Signal) Fire() {
	ws := sg.waiters
	for i, w := range ws {
		sg.sim.atStep(sg.sim.now, w)
		ws[i] = nil
	}
	sg.waiters = ws[:0] // keep the backing array for the next round of waiters
}

// Waiting reports the number of processes blocked on the signal.
func (sg *Signal) Waiting() int { return len(sg.waiters) }

// RunUntilCond advances the simulation in check-sized increments until cond
// becomes true or limit is reached. It lets tests and experiments stop as
// soon as their workload completes instead of simulating idle polling.
func (s *Sim) RunUntilCond(limit Time, check time.Duration, cond func() bool) {
	for s.now < limit && !cond() {
		next := s.now.Add(check)
		if next > limit {
			next = limit
		}
		s.RunUntil(next)
	}
}

// ---------------------------------------------------------------------------
// Gates (doorbell parking)

// Gate is a level-safe, versioned broadcast: every Fire bumps the version
// and wakes current waiters. Callers snapshot Version before checking their
// condition and pass it to Wait, which returns immediately if anything fired
// in between — eliminating the lost-wakeup race of edge-triggered signals.
//
// Gates are the simulator's doorbell-parking mechanism: simulated busy-poll
// loops (GPU threadblocks watching doorbells, the Remote MQ Manager sweeping
// TX rings) park on a gate instead of scheduling a wakeup event every poll
// interval while their queues are empty; the caller re-adds the modelled
// polling detection latency after waking, so virtual-time results are
// identical to the spinning implementation.
type Gate struct {
	sim     *Sim
	ver     uint64
	waiters []*gateWaiter
	free    []*gateWaiter
}

type gateWaiter struct {
	p     *Proc // coroutine waiter (nil for task waiters)
	t     *Task // task waiter; its continuation was armed by WaitT
	woken bool
	gen   uint64 // guards recycled waiters against stale timeout events
	// expire is the node's timeout body (WaitTimeout/WaitTimeoutT), bound
	// once; see timer.
	expire   func(gen uint64)
	timedOut bool
}

// NewGate creates a gate bound to s.
func NewGate(s *Sim) *Gate { return &Gate{sim: s} }

// Version returns the current fire count.
func (g *Gate) Version() uint64 { return g.ver }

// Waiting reports the number of blocked waiters.
func (g *Gate) Waiting() int { return len(g.waiters) }

// Fire bumps the version and wakes every current waiter.
func (g *Gate) Fire() {
	g.ver++
	ws := g.waiters
	for i, w := range ws {
		w.woken = true
		if w.p != nil {
			g.sim.atStep(g.sim.now, w.p)
		} else {
			// The task's continuation lives in the task, not the node, so
			// the node recycles immediately (bumping gen, which neutralizes
			// any pending WaitTimeoutT timeout for this wait).
			t := w.t
			g.putWaiter(w)
			g.sim.atFn(g.sim.now, t.runEv)
		}
		ws[i] = nil
	}
	g.waiters = ws[:0] // keep the backing array for the next round of waiters
}

func (g *Gate) remove(w *gateWaiter) {
	for i, x := range g.waiters {
		if x == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}

// getWaiter takes a node from the free list (or allocates the first time).
func (g *Gate) getWaiter(p *Proc) *gateWaiter {
	if n := len(g.free); n > 0 {
		w := g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
		w.p = p
		return w
	}
	return &gateWaiter{p: p}
}

// putWaiter recycles a node whose wait has fully resolved.
func (g *Gate) putWaiter(w *gateWaiter) {
	w.p, w.t, w.woken, w.timedOut = nil, nil, false, false
	w.gen++
	g.free = append(g.free, w)
}

// armTimer schedules w's timeout d from now.
func (g *Gate) armTimer(w *gateWaiter, d time.Duration) {
	if w.expire == nil {
		w.expire = func(gen uint64) { g.expireWait(w, gen) }
	}
	g.sim.timeout(d, w.gen, w.expire)
}

// expireWait is the body of a gate timeout armed at generation gen. Unless
// the wait already resolved (fired, or recycled), it times out: a Proc
// resumes inside this event, a Task runs its continuation with fired=false.
func (g *Gate) expireWait(w *gateWaiter, gen uint64) {
	if w.gen != gen || w.woken || w.timedOut {
		return
	}
	w.timedOut = true
	g.remove(w)
	if p := w.p; p != nil {
		g.sim.step(p)
		return
	}
	t := w.t
	g.putWaiter(w)
	if t.killed || t.done {
		return
	}
	t.k = nil
	t.parkedOn = nil
	k := t.gateK
	t.gateK = nil
	k(false)
	t.maybeFinish()
}

// Wait blocks until the gate fires, unless it already fired since the caller
// observed version since (in which case it returns immediately).
func (g *Gate) Wait(p *Proc, since uint64) {
	if g.ver != since {
		return
	}
	w := g.getWaiter(p)
	g.waiters = append(g.waiters, w)
	defer func() {
		if !w.woken {
			g.remove(w)
		}
		g.putWaiter(w)
	}()
	p.block()
}

// WaitTimeout is Wait with a deadline; it reports whether the gate fired
// (true) or the timeout elapsed first (false).
func (g *Gate) WaitTimeout(p *Proc, since uint64, d time.Duration) bool {
	if g.ver != since {
		return true
	}
	if d <= 0 {
		return false
	}
	w := g.getWaiter(p)
	g.waiters = append(g.waiters, w)
	g.armTimer(w, d)
	defer func() {
		if !w.woken && !w.timedOut {
			g.remove(w)
		}
		g.putWaiter(w)
	}()
	p.block()
	return w.woken
}
