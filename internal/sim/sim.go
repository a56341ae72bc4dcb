// Package sim implements a deterministic discrete-event simulator.
//
// The simulator advances a virtual clock by executing events in
// (timestamp, sequence-number) order. On top of the raw event loop it offers
// two process substrates that coexist on the same event queues and
// interoperate freely:
//
//   - Coroutine Procs (Spawn): each process is a runtime coroutine
//     (iter.Pull), so at most one goroutine belonging to a simulation runs
//     at any instant: the scheduler resumes a process with a direct
//     goroutine switch, and the process switches straight back when it
//     blocks. Natural straight-line code; two goroutine switches, and no
//     channel operation or scheduler round trip, per scheduler step.
//   - Run-to-completion Tasks (SpawnTask, see task.go): state-machine
//     processes whose continuations the scheduler calls inline in its event
//     loop — zero goroutine switches, zero channel operations per step.
//     Continuation-passing style at blocking points; built for always-on
//     hot-path processes.
//
// Both substrates share channels, gates, resources, and the seeded random
// source. Each blocking primitive has one body, its task form: a Proc blocks
// by running that form on its bridge Task, so a process ported between the
// substrates consumes the same scheduler sequence numbers and leaves
// simulation output byte-identical. Together with the seeded random source
// this makes every simulation bit-reproducible.
//
// The event loop is built for throughput. Events are plain values (no
// container/heap interface boxing, no per-event allocation) in two queues: a
// timing wheel of one-nanosecond buckets that takes every event scheduled due
// within the next 4096 ns, the current instant included, and an inlined 4-ary
// min-heap holding the far-future remainder. Nearly every event a model
// schedules lands in the wheel at O(1), and the loop finds the next one with
// a two-level occupancy bitmap. Wait timeouts are lazy: a channel or gate
// waiter node keeps at most one queued event however many waits it serves,
// and a wait that resolves before its deadline leaves nothing new behind (see
// deadline), so the queues hold the live events, not every stale timer of
// every deadline class. Every wake schedules a thunk bound once — a Proc's
// resume, a Task's activation, a waiter node's wake or deadline — and the
// waiter nodes of channels and gates recycle through free lists. Steady-state
// scheduling therefore allocates nothing on either substrate.
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
	"math/bits"
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
	now Time
	// wheel holds every event scheduled due before now+wheelSize; events
	// is a 4-ary min-heap ordered by (at, seq) holding the later ones and
	// the deadlines a waiter node carries forward. The loop runs the lesser
	// of the two heads, which is exactly the (at, seq) order of one heap:
	// results are byte-identical. Events of one instant from the two
	// process substrates have no tie-break of their own: a Task activation
	// and a Proc step run purely in seq order, the order their wakes were
	// scheduled.
	wheel  wheel
	events []event
	seq    uint64
	// cur is the seq of the executing event, by which a deadline event
	// tells whether it is its node's armed deadline (see deadline).
	cur uint64
	rng *rand.Rand

	executed uint64

	// timeRegressions counts events that executed with a timestamp earlier
	// than the clock — impossible with correct queues, so any non-zero value
	// is an ordering bug. Maintained unconditionally: it is one branch per
	// event, and the invariant layer (internal/check) asserts it is zero.
	timeRegressions uint64

	// onShutdown callbacks run once inside Shutdown, after every process has
	// unwound but before the event heap is dropped — the point where
	// end-of-run invariants (request conservation, in-flight accounting) see
	// final, stable state.
	onShutdown []func()
	shutdown   bool

	// order lists spawned processes and tasks in spawn order (lazily
	// compacted), so Shutdown unwinds them deterministically regardless of
	// substrate.
	order    []runner
	nprocs   int
	stopping bool
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
	return &Sim{rng: rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed reports the total number of events executed so far. A wait
// deadline's event counts only when it expires its wait (see Sim.due).
func (s *Sim) Executed() uint64 { return s.executed }

// TimeRegressions reports how many events ran with a timestamp before the
// clock. Always zero unless the event queues' total order is broken.
func (s *Sim) TimeRegressions() uint64 { return s.timeRegressions }

// OnShutdown registers fn to run once during Shutdown, after all processes
// have unwound and before the event heap is dropped. Hooks run in
// registration order.
func (s *Sim) OnShutdown(fn func()) { s.onShutdown = append(s.onShutdown, fn) }

// event is one scheduled entry. Proc resumes, task activations, channel
// wake thunks and wait timeouts carry a pre-bound func; only irregular
// callbacks (user events) carry a fresh closure. Events are stored by value
// in the queues, never allocated individually.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventLess orders events by (timestamp, sequence): the unique total order
// that makes runs bit-reproducible regardless of which queue holds an event.
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
	h[last] = event{} // release the closure reference
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

// The wheel's geometry: wheelSize one-nanosecond buckets, so an event due in
// [now, now+wheelSize) has a bucket of its own instant.
const (
	wheelSize = 1 << 12
	wheelMask = wheelSize - 1
)

// wheel is a timing wheel (Varghese & Lauck) of one-nanosecond buckets. Every
// queued event is due in [now, now+wheelSize), so bucket at&wheelMask holds
// events of that one instant only, as a singly linked list of slab nodes. An
// event enters the wheel only with the newest seq, so appending at a
// bucket's tail keeps every bucket (at, seq)-sorted. occ has one bit per
// occupied bucket and summary one bit per non-zero occ word, so the first
// occupied bucket from the clock is two trailing-zero counts away. The
// bucket and bitmap arrays are fixed; nodes recycle through a free list, so
// a warm wheel allocates nothing.
type wheel struct {
	buckets [wheelSize]bucket
	occ     [wheelSize / 64]uint64
	summary uint64
	// nodes is the slab; index 0 is the nil link and never holds an event.
	nodes []wheelNode
	free  int32 // head of the free-node list, 0 for none
}

// bucket is one instant's list: the slab indexes of its oldest and newest
// nodes, 0 while empty.
type bucket struct{ head, tail int32 }

type wheelNode struct {
	event
	next int32
}

// push appends e, which is due within the horizon and carries the newest
// seq, to its bucket.
func (w *wheel) push(e event) {
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
		w.nodes[n] = wheelNode{event: e}
	} else {
		if len(w.nodes) == 0 {
			w.nodes = append(w.nodes, wheelNode{})
		}
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{event: e})
	}
	i := int(e.at) & wheelMask
	b := &w.buckets[i]
	if b.head == 0 {
		b.head = n
		w.occ[i>>6] |= 1 << (i & 63)
		w.summary |= 1 << (i >> 6)
	} else {
		w.nodes[b.tail].next = n
	}
	b.tail = n
}

// first returns the index of the first occupied bucket in time order from
// now, or -1 when the wheel is empty. Scanning from now's bucket, the words
// after it come first, then those before it, and last the low bits of its
// own word: the far end of the horizon.
func (w *wheel) first(now Time) int {
	if w.summary == 0 {
		return -1
	}
	p := int(now) & wheelMask
	word := p >> 6
	if m := w.occ[word] >> (p & 63); m != 0 {
		return p + bits.TrailingZeros64(m)
	}
	upTo := uint64(2)<<word - 1 // the summary bits of words 0..word
	m := w.summary &^ upTo
	if m == 0 {
		m = w.summary & upTo
	}
	word = bits.TrailingZeros64(m)
	return word<<6 + bits.TrailingZeros64(w.occ[word])
}

// pop removes and returns the oldest event of occupied bucket i.
func (w *wheel) pop(i int) event {
	b := &w.buckets[i]
	n := b.head
	node := &w.nodes[n]
	e := node.event
	if b.head = node.next; b.head == 0 {
		if w.occ[i>>6] &^= 1 << (i & 63); w.occ[i>>6] == 0 {
			w.summary &^= 1 << (i >> 6)
		}
	}
	node.fn, node.next = nil, w.free // release the closure reference
	w.free = n
	return e
}

// enqueue gives e the next sequence number and queues it.
func (s *Sim) enqueue(e event) {
	s.seq++
	e.seq = s.seq
	s.place(e)
}

// place queues e, which carries the newest sequence number: on the wheel
// when it is due within the horizon, on the heap otherwise.
func (s *Sim) place(e event) {
	if uint64(e.at-s.now) < wheelSize {
		s.wheel.push(e)
	} else {
		s.push(e)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.enqueue(event{at: t, fn: fn})
}

// atFn schedules fn at t — the internal wake path for Proc resumes, task
// activations and waiter wake thunks. These are pre-bound funcs, so the path
// allocates nothing; it skips At's past-check because callers always
// schedule at or after now.
func (s *Sim) atFn(t Time, fn func()) { s.enqueue(event{at: t, fn: fn}) }

// After schedules fn to run d after the current time.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now.Add(d), fn) }

// Run executes events until none is pending.
func (s *Sim) Run() { s.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamps <= limit, advancing the clock. It
// returns when no event is pending or the next one lies beyond limit; in the
// latter case the clock is left at limit. A limit before Now() leaves the
// clock and the pending events untouched: the clock never moves backwards.
func (s *Sim) RunUntil(limit Time) {
	if limit < s.now {
		return
	}
	for {
		// The next event is the lesser of the wheel's and the heap's heads.
		var next *event
		i := s.wheel.first(s.now)
		if i >= 0 {
			next = &s.wheel.nodes[s.wheel.buckets[i].head].event
		}
		fromHeap := len(s.events) > 0 && (next == nil || eventLess(&s.events[0], next))
		if fromHeap {
			next = &s.events[0]
		}
		if next == nil {
			break
		}
		if next.at > limit {
			s.now = limit
			return
		}
		if fromHeap {
			s.runEvent(s.popMin())
		} else {
			s.runEvent(s.wheel.pop(i))
		}
	}
	if s.now < limit && limit < Time(1<<62-1) {
		s.now = limit
	}
}

// RunUntilCond advances the simulation in check-sized increments until cond
// becomes true or limit is reached. It lets tests and experiments stop as
// soon as their workload completes instead of simulating idle polling.
// check must be positive.
func (s *Sim) RunUntilCond(limit Time, check time.Duration, cond func() bool) {
	if check <= 0 {
		panic(fmt.Sprintf("sim: RunUntilCond check interval %v is not positive", check))
	}
	for s.now < limit && !cond() {
		next := s.now.Add(check)
		if next > limit {
			next = limit
		}
		s.RunUntil(next)
	}
}

// runEvent advances the clock to e.at and executes e.
func (s *Sim) runEvent(e event) {
	if e.at < s.now {
		s.timeRegressions++
	}
	s.now, s.cur = e.at, e.seq
	s.executed++
	e.fn()
}

// ---------------------------------------------------------------------------
// Processes

// Proc is a simulated process: a coroutine that runs under the simulation
// scheduler. All blocking methods (Sleep, Chan.Get, Resource.Acquire, ...)
// take the Proc so that control can be handed back to the scheduler.
type Proc struct {
	sim  *Sim
	name string
	// next resumes the coroutine until it blocks or exits; yield, called
	// from inside it, switches back to whoever called next (see Spawn).
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	killed bool
	done   bool

	// bridge is the task every blocking call of the process runs its task
	// form on: a blocked Proc is its parked bridge. Spawn creates it and
	// binds the continuations the calls hand it: resume steps the process,
	// doneK completes an Await. awaited marks the pending Await complete, parked
	// that the process is blocked waiting for it.
	bridge  *Task
	resume  func()
	doneK   func()
	awaited bool
	parked  bool
}

// Now returns the current virtual time (convenience for p.Sim().Now()).
func (p *Proc) Now() Time { return p.sim.now }

// killedErr is the panic payload used to unwind killed processes.
type killedErr struct{ name string }

func (k killedErr) Error() string { return "sim: process " + k.name + " killed" }

// step transfers control to p and returns once p blocks or exits. Bound
// once as p.resume, it is the continuation every wake of p runs.
func (p *Proc) step() {
	if p.done {
		return
	}
	if p.sim.stopping {
		p.killed = true
	}
	p.next()
}

// block suspends the calling process until a wake resumes it. Once Shutdown
// has begun nothing will, so it unwinds at once. It is the one kill path of
// every Proc-form blocking call: a killed process first withdraws its
// bridge's pending wait from on (nil for none), then unwinds.
func (p *Proc) block(on unparker) {
	if !p.sim.stopping {
		p.yield(struct{}{})
	}
	if p.killed {
		if on != nil {
			on.unparkTask(p.bridge)
		}
		panic(killedErr{p.name})
	}
}

// Sleep suspends the process for d of virtual time. Negative or zero
// durations still yield to the scheduler at the current timestamp.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.atFn(p.sim.now.Add(d), p.resume)
	p.block(nil)
}

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
	// Unwind every blocked process in spawn order. Its wake may be far in
	// the future, so each live proc is resumed directly and withdraws its
	// own waiter as it unwinds. Tasks have no stack to unwind: killing one
	// deregisters its waiter and runs its OnKill hook.
	for _, r := range s.order {
		if r.p != nil {
			r.p.step()
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
	s.wheel = wheel{}
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

// waiter is one task parked on a Chan, as a getter or a putter; a blocked
// Proc parks as its bridge task.
type waiter[T any] struct {
	t   *Task // the parked task, whose continuation the wake runs
	val T     // value being delivered (getter: filled by putter; putter: value to enqueue)
	// The wake runs one continuation: kv receives the delivered value
	// (GetT), kb the size of the burst drained into batch behind it
	// (GetBatchT), kto ends a GetTimeoutT wait either way, kn just continues
	// (PutT, and every Proc form: its resume, after which the Proc reads
	// val and timedOut from this node). wake is the node's event thunk,
	// bound once per node and kept across the free list, so steady-state
	// parking allocates nothing.
	kv       func(T)
	kb       func(n int)
	batch    []T
	kto      func(v T, ok bool)
	kn       func()
	wake     func()
	dl       deadline // the GetTimeout deadline; its fire is bound once like wake
	timedOut bool
}

// getWaiter takes a node for t from the free list, or allocates one and
// binds its wake the first time.
func (c *Chan[T]) getWaiter(t *Task) *waiter[T] {
	var w *waiter[T]
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		w = &waiter[T]{}
		w.wake = func() { c.wakeTask(w) }
	}
	w.t = t
	return w
}

// putWaiter recycles a node whose wait has fully resolved, disarming its
// deadline. The wake and deadline thunks survive recycling (they are bound
// to the node, not the wait), and so does the node's queued deadline event.
func (c *Chan[T]) putWaiter(w *waiter[T]) {
	var zero T
	w.t, w.kv, w.kb, w.batch, w.kto, w.kn, w.val, w.timedOut = nil, nil, nil, nil, nil, nil, zero, false
	w.dl.seq = 0
	c.free = append(c.free, w)
}

// wakeTask ends w's wait, as the event body of a rendezvous or inside the
// timeout event: it runs the parked task's continuation, then recycles the
// node. Continuation first, so a resumed Proc reads its result from the
// node before the node can serve another wait.
func (c *Chan[T]) wakeTask(w *waiter[T]) {
	if t := w.t; !t.killed && !t.done {
		t.parkedOn = nil
		switch {
		case w.kv != nil:
			w.kv(w.val)
		case w.kb != nil:
			w.batch[0] = w.val
			w.kb(1 + c.drainInto(w.batch[1:]))
		case w.kto != nil:
			w.kto(w.val, !w.timedOut)
		case w.kn != nil:
			w.kn()
		}
		t.maybeFinish()
	}
	c.putWaiter(w)
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

// deliver hands v to a popped getter and schedules its wake: one scheduler
// slot. The wait has resolved, so its deadline disarms now, before the wake
// runs.
func (c *Chan[T]) deliver(w *waiter[T], v T) {
	w.val, w.dl.seq = v, 0
	c.sim.atFn(c.sim.now, w.wake)
}

// Put enqueues v, blocking while the queue is at capacity.
func (c *Chan[T]) Put(p *Proc, v T) {
	if !c.PutT(p.bridge, v, p.resume) {
		p.block(c)
	}
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
		c.buf = append(c.buf, w.val)
		c.sim.atFn(c.sim.now, w.wake)
	}
}

// Get dequeues the oldest item, blocking while the queue is empty.
func (c *Chan[T]) Get(p *Proc) T {
	v, w := c.recv(p.bridge, p.resume)
	if w != nil {
		p.block(c)
		v = w.val
	}
	return v
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
	v, ok, w := c.recvTimeout(p.bridge, d, p.resume)
	if w != nil {
		p.block(c)
		v, ok = w.val, !w.timedOut
	}
	return v, ok
}

// armTimeout arms the deadline of w's wait d from now.
func (c *Chan[T]) armTimeout(w *waiter[T], d time.Duration) {
	if w.dl.fire == nil {
		w.dl.fire = func() {
			if c.sim.due(&w.dl) {
				c.expireWait(w)
			}
		}
	}
	c.sim.arm(&w.dl, d)
}

// expireWait times w's wait out inside its deadline event.
func (c *Chan[T]) expireWait(w *waiter[T]) {
	w.timedOut = true
	c.getters.remove(w)
	c.wakeTask(w)
}

// deadline is the wait timeout of one waiter node. Arming one takes the next
// scheduler slot, as scheduling any event does, but queues an event only
// when the node has none queued or the new deadline is earlier than the
// queued one; a wait that resolves first just disarms. So the node's queued
// event runs no later than the armed deadline, and when it runs it either
// is that deadline, which expires the wait, or carries it forward with
// exactly its (at, seq). Every wait that times out does so at the (at, seq)
// an eager timer would have fired at, and a node serving a stream of waits
// that receive keeps one queued event instead of one dead timer per wait.
type deadline struct {
	at  Time   // the armed deadline
	seq uint64 // its scheduler slot; 0 while no wait timeout is armed
	// qat and qseq are the time and slot of the node's queued event (qseq
	// 0: none). An event a shortened deadline replaced stays queued, but
	// its slot is no longer qseq.
	qat  Time
	qseq uint64
	fire func() // the queued event's body, bound once per node
}

// arm sets dl to expire d (> 0) from now.
func (s *Sim) arm(dl *deadline, d time.Duration) {
	s.seq++
	dl.at, dl.seq = s.now.Add(d), s.seq
	if dl.qseq == 0 || dl.at < dl.qat {
		dl.qat, dl.qseq = dl.at, dl.seq
		s.place(event{at: dl.at, seq: dl.seq, fn: dl.fire})
	}
}

// due is the start of dl's event body: it reports whether the executing
// event is dl's armed deadline, which the caller then expires. Any other
// deadline event is the engine's bookkeeping, not a model event, and is not
// counted in Executed: the node's queued event re-queues the later deadline
// armed since (if any), and a replaced one does nothing. A re-queued
// deadline goes to the heap even when it is due within the wheel's horizon:
// its slot is older than events the wheel may already hold at its time.
func (s *Sim) due(dl *deadline) bool {
	if s.cur == dl.seq {
		dl.seq, dl.qseq = 0, 0
		return true
	}
	s.executed--
	if s.cur == dl.qseq {
		dl.qseq = 0
		if dl.seq != 0 {
			dl.qat, dl.qseq = dl.at, dl.seq
			s.push(event{at: dl.at, seq: dl.seq, fn: dl.fire})
		}
	}
	return false
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
	waiters []*Task // FIFO of parked acquirers, Procs as their bridges; wHead indexes the oldest
	wHead   int
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
	if !r.AcquireT(p.bridge, p.resume) {
		p.block(r)
	}
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
		t := r.waiters[r.wHead]
		r.waiters[r.wHead] = nil
		r.wHead++
		if r.wHead == len(r.waiters) {
			r.waiters, r.wHead = r.waiters[:0], 0
		} else if r.wHead > 32 && r.wHead*2 >= len(r.waiters) {
			// Never-empty wait queue: compact (amortized O(1)) so the
			// backing array stays bounded.
			n := copy(r.waiters, r.waiters[r.wHead:])
			clear(r.waiters[n:])
			r.waiters, r.wHead = r.waiters[:n], 0
		}
		// Unit passes directly to the waiter; inUse stays constant.
		r.sim.atFn(r.sim.now, t.runEv)
		return
	}
	if r.inUse == 0 {
		panic("sim: Release without Acquire")
	}
	r.inUse--
}

// remove deletes t from the wait queue (Kill path), reporting whether it was
// still waiting there, i.e. had not been granted a unit.
func (r *Resource) remove(t *Task) bool {
	for i := r.wHead; i < len(r.waiters); i++ {
		if r.waiters[i] == t {
			copy(r.waiters[i:], r.waiters[i+1:])
			r.waiters[len(r.waiters)-1] = nil
			r.waiters = r.waiters[:len(r.waiters)-1]
			if r.wHead == len(r.waiters) {
				r.waiters, r.wHead = r.waiters[:0], 0
			}
			return true
		}
	}
	return false
}

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

// gateWaiter is one task parked on a Gate; a blocked Proc parks as its
// bridge task. The continuation lives in the task, not the node.
type gateWaiter struct {
	t  *Task
	dl deadline // the WaitTimeoutT deadline
}

// NewGate creates a gate bound to s.
func NewGate(s *Sim) *Gate { return &Gate{sim: s} }

// Version returns the current fire count.
func (g *Gate) Version() uint64 { return g.ver }

// Fire bumps the version and wakes every current waiter.
func (g *Gate) Fire() {
	g.ver++
	ws := g.waiters
	for i, w := range ws {
		// The node recycles at once, disarming this wait's deadline.
		t := w.t
		g.putWaiter(w)
		g.sim.atFn(g.sim.now, t.runEv)
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

// addWaiter queues a node for t, taken from the free list (or allocated the
// first time).
func (g *Gate) addWaiter(t *Task) *gateWaiter {
	var w *gateWaiter
	if n := len(g.free); n > 0 {
		w = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		w = &gateWaiter{}
	}
	w.t = t
	g.waiters = append(g.waiters, w)
	return w
}

// putWaiter recycles a node whose wait has fully resolved, disarming its
// deadline.
func (g *Gate) putWaiter(w *gateWaiter) {
	w.t = nil
	w.dl.seq = 0
	g.free = append(g.free, w)
}

// armTimer arms the deadline of w's wait d from now.
func (g *Gate) armTimer(w *gateWaiter, d time.Duration) {
	if w.dl.fire == nil {
		w.dl.fire = func() {
			if g.sim.due(&w.dl) {
				g.expireWait(w)
			}
		}
	}
	g.sim.arm(&w.dl, d)
}

// expireWait times w's wait out inside its deadline event: the task runs
// its continuation with fired=false.
func (g *Gate) expireWait(w *gateWaiter) {
	g.remove(w)
	t := w.t
	g.putWaiter(w)
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
	if !g.WaitT(p.bridge, since, p.resume) {
		p.block(g)
	}
}
