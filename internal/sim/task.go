// Run-to-completion tasks: the simulator's second process substrate.
//
// A Task is a state-machine process the scheduler executes inline in its
// event loop — no goroutine, no coroutine switch. Where a coroutine Proc
// blocks by switching back to the scheduler's goroutine, a Task *returns*,
// leaving a continuation (a plain func) that the waking event invokes
// directly. The price is continuation-passing style at every blocking point;
// the payoff is that a scheduler step costs a function call instead of two
// goroutine switches.
//
// Tasks and Procs coexist on the same event queues, virtual clock, channels,
// gates, and resources, and interoperate freely: a Task can park on a Chan a
// Proc feeds and vice versa. The task forms here are the only bodies of the
// blocking primitives: every Proc form runs its task form on the Proc's
// bridge task and blocks until the bridge's continuation resumes it, so a
// Proc call consumes exactly the scheduler sequence numbers of the task
// call. With SpawnTask and Spawn each burning one slot for the start event
// and Task.Sleep and Proc.Sleep one slot each, porting a process from one
// substrate to the other leaves the global (timestamp, sequence) event
// order — and therefore every simulation result — byte-identical.
// Same-instant Task and Proc events carry no substrate-specific tie-break:
// they interleave purely by sequence number, in the order the wakes were
// scheduled.
//
// Wait-booking contract: because a Task's continuation runs inside the event
// that woke it, Sim.Now() observed at the top of a continuation equals the
// virtual time the wake was scheduled for — the same value a Proc would see
// returning from the corresponding blocking call. Code that books waits by
// differencing Now() around a blocking region ports mechanically.
package sim

import "time"

// Task is a run-to-completion process: the scheduler invokes its pending
// continuation inline for every wake. All blocking primitives come in
// continuation-passing form (Task.Sleep, Chan.GetT/PutT, Resource.AcquireT,
// Gate.WaitT, ...); a Task must never spin without parking, exactly like a
// Proc must not loop without blocking.
type Task struct {
	sim  *Sim
	name string

	// k is the continuation armed for the next wake (timer, resource grant,
	// gate fire). Channel waits leave k nil and deliver through the waiter
	// node instead, so a value hand-off costs no extra indirection.
	k func()

	// runEv is the pre-bound activation thunk scheduled as an ordinary
	// event{fn: ...}. Allocated once at spawn; every subsequent wake is
	// allocation-free.
	runEv func()

	// parkedOn tracks the primitive holding a waiter node for this task
	// (nil while running or timer-parked), so Kill and Shutdown can
	// deregister it. Cold path only.
	parkedOn unparker

	onKill func()
	killed bool
	done   bool

	// resF is the task's scratch frame for Resource.WithT. A task holds at
	// most one WithT in flight at a time (a nested call can only be issued
	// from inside the previous call's continuation, after the frame's fields
	// have been copied out), so a single lazily-allocated frame per task
	// makes every WithT call allocation-free.
	resF *resFrame

	// gateK is the continuation of the task's pending Gate.WaitTimeoutT;
	// gateFired, bound once, delivers it fired=true (the timeout path
	// delivers fired=false), so a timed gate wait allocates nothing.
	gateK     func(fired bool)
	gateFired func()

	// proc is set on a Proc's bridge task (see Proc.bridge), which lives
	// as long as its process and is never retired on its own.
	proc *Proc
}

// unparker is implemented by blocking primitives that hold task waiter
// nodes; unparkTask removes the task's node (Kill/Shutdown cold path).
type unparker interface{ unparkTask(t *Task) }

// SpawnTask starts a run-to-completion task at the current virtual time.
// start runs when the scheduler reaches the task's start event; the task
// stays live while it has a pending continuation or parked waiter, and
// finishes when a continuation returns with nothing armed.
func (s *Sim) SpawnTask(name string, start func(t *Task)) *Task {
	t := newTask(s, name)
	t.k = func() { start(t) }
	s.addRunner(runner{t: t})
	s.atFn(s.now, t.runEv)
	return t
}

// newTask creates a task with its activation thunk bound.
func newTask(s *Sim, name string) *Task {
	t := &Task{sim: s, name: name}
	t.runEv = t.activate
	return t
}

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.sim.now }

// activate runs the armed continuation. It is the body of every scheduled
// task event; stale events for killed or finished tasks are no-ops.
func (t *Task) activate() {
	if t.killed || t.done {
		return
	}
	k := t.k
	if k == nil {
		return
	}
	t.k = nil
	t.parkedOn = nil
	k()
	t.maybeFinish()
}

// maybeFinish retires the task once no continuation or waiter is pending.
func (t *Task) maybeFinish() {
	if !t.done && t.proc == nil && t.k == nil && t.parkedOn == nil {
		t.done = true
		t.sim.nprocs--
	}
}

// park records where the task is waiting. k may be nil when the wake is
// delivered through a waiter node (channel hand-offs).
func (t *Task) park(on unparker, k func()) {
	t.parkedOn = on
	t.k = k
}

// Sleep arms k to run after d of virtual time. Negative durations clamp to
// zero and still consume one scheduler slot, matching Proc.Sleep exactly.
func (t *Task) Sleep(d time.Duration, k func()) {
	if d < 0 {
		d = 0
	}
	t.k = k
	t.sim.atFn(t.sim.now.Add(d), t.runEv)
}

func (t *Task) kill() {
	if t.done {
		return
	}
	t.killed = true
	if on := t.parkedOn; on != nil {
		t.parkedOn = nil
		on.unparkTask(t)
	}
	t.k = nil
	if fn := t.onKill; fn != nil {
		t.onKill = nil
		fn()
	}
	t.done = true
	t.sim.nprocs--
}

// ---------------------------------------------------------------------------
// Bridging coroutine Procs onto task-form operations

// Await runs one task-form operation from coroutine process p, so each
// operation needs only its continuation-passing body. start issues the
// operation on p's bridge task and arranges for done to run as (or from)
// its continuation. A continuation that runs inline returns Await without
// yielding; otherwise p blocks and resumes inside the event that runs the
// continuation, exactly as the Proc forms of this package's primitives do.
// A bridged call therefore consumes exactly the scheduler slots of the task
// form. Like any blocking call, Await unwinds a killed p when it resumes.
func (p *Proc) Await(start func(t *Task, done func())) {
	p.awaited = false
	start(p.bridge, p.doneK)
	if !p.awaited {
		p.parked = true
		p.block(nil)
	}
}

// awaitDone completes the pending Await, resuming p inside the current event
// if it is blocked there.
func (p *Proc) awaitDone() {
	p.awaited = true
	if p.parked {
		p.parked = false
		p.step()
	}
}

// ---------------------------------------------------------------------------
// Channel operations in continuation-passing form

// GetT dequeues for task t. If a value is buffered it is returned inline
// with ok=true and fn never runs — the caller continues, exactly like a Proc
// whose Get finds a buffered value and does not yield. Otherwise t parks,
// (zero, false) returns now, and fn runs inside the putter's hand-off event.
func (c *Chan[T]) GetT(t *Task, fn func(v T)) (T, bool) {
	v, w := c.recv(t, nil)
	if w != nil {
		w.kv = fn
	}
	return v, w == nil
}

// recv is the body of every receive: it takes the oldest buffered value
// (w == nil), or parks t on a getter node whose wake runs kn.
func (c *Chan[T]) recv(t *Task, kn func()) (v T, w *waiter[T]) {
	if v, ok := c.TryGet(); ok {
		return v, nil
	}
	w = c.getWaiter(t)
	w.kn = kn
	c.getters.push(w)
	t.park(c, nil)
	return v, w
}

// recvTimeout is recv with a deadline: inline (w == nil) when a value is
// buffered (ok=true) or d <= 0 (ok=false).
func (c *Chan[T]) recvTimeout(t *Task, d time.Duration, kn func()) (v T, ok bool, w *waiter[T]) {
	if d <= 0 {
		v, ok = c.TryGet()
		return v, ok, nil
	}
	if v, w = c.recv(t, kn); w != nil {
		c.armTimeout(w, d)
	}
	return v, w == nil, w
}

// GetBatchT dequeues up to len(buf) items for task t: the first value, then
// whatever else is immediately available without blocking or letting the
// clock advance, so one wakeup absorbs a whole queued burst. It returns
// inline when a value is immediately available (n>=1, true; fn never runs),
// else t parks and fn runs with the batch size once the first value lands
// and the burst is drained.
func (c *Chan[T]) GetBatchT(t *Task, buf []T, fn func(n int)) (int, bool) {
	if len(buf) == 0 {
		return 0, true
	}
	if v, ok := c.TryGet(); ok {
		buf[0] = v
		return 1 + c.drainInto(buf[1:]), true
	}
	_, w := c.recv(t, nil)
	w.kb, w.batch = fn, buf
	return 0, false
}

// drainInto fills buf with immediately available values, without blocking.
func (c *Chan[T]) drainInto(buf []T) int {
	n := 0
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

// PutT enqueues v for task t. It reports true when the value was accepted
// inline (room in the buffer, or a direct hand-off to a waiting getter) — the
// caller continues and k never runs. When the queue is at capacity t parks,
// false returns now, and k runs once the value is admitted.
func (c *Chan[T]) PutT(t *Task, v T, k func()) bool {
	if c.TryPut(v) {
		return true
	}
	w := c.getWaiter(t)
	w.val, w.kn = v, k
	c.putters.push(w)
	t.park(c, nil)
	return false
}

// unparkTask removes t's waiter node from either wait queue (Kill path).
func (c *Chan[T]) unparkTask(t *Task) {
	if w := c.getters.findTask(t); w != nil {
		c.getters.remove(w)
		c.putWaiter(w)
		return
	}
	if w := c.putters.findTask(t); w != nil {
		c.putters.remove(w)
		c.putWaiter(w)
	}
}

// findTask locates the waiter owned by task t, if any.
func (w *waiterQ[T]) findTask(t *Task) *waiter[T] {
	for i := w.head; i < len(w.q); i++ {
		if w.q[i].t == t {
			return w.q[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Resource operations in continuation-passing form

// AcquireT takes one unit for task t: true means the unit was granted inline
// and the caller continues (k never runs); false means t parked and k runs
// in the wake event Release schedules when it hands the unit over, FIFO
// with Proc waiters.
func (r *Resource) AcquireT(t *Task, k func()) bool {
	if r.TryAcquire() {
		return true
	}
	r.waiters = append(r.waiters, t)
	t.park(r, k)
	return false
}

// WithT holds one unit for exec of virtual time, then releases it and runs
// k. It mirrors Resource.With with a nil fn: acquire (FIFO), sleep only when
// exec > 0, release, continue. The call's (resource, exec, k) travel through
// the task's pre-bound resFrame, so the hot path allocates nothing.
func (r *Resource) WithT(t *Task, exec time.Duration, k func()) {
	f := t.resFrame()
	f.r, f.exec, f.k = r, exec, k
	if r.AcquireT(t, f.acqK) {
		f.run()
	}
}

// resFrame carries one in-flight Resource.WithT through its acquire and
// sleep continuations without per-call closures: acqK and sleepK are bound
// once when the frame is created, and both copy the frame's fields to locals
// before invoking k so a nested WithT issued from inside k can reuse it.
type resFrame struct {
	t      *Task
	r      *Resource
	exec   time.Duration
	k      func()
	acqK   func() // pre-bound f.run: continues after a parked grant
	sleepK func() // pre-bound f.done: releases the unit, then continues k
}

func (t *Task) resFrame() *resFrame {
	if t.resF == nil {
		f := &resFrame{t: t}
		f.acqK = f.run
		f.sleepK = f.done
		t.resF = f
	}
	return t.resF
}

// run holds the unit for exec: one scheduler slot when exec > 0 (matching
// Proc-side Resource.With), inline release otherwise.
func (f *resFrame) run() {
	if f.exec > 0 {
		f.t.Sleep(f.exec, f.sleepK)
		return
	}
	f.done()
}

func (f *resFrame) done() {
	r, k := f.r, f.k
	f.r, f.k = nil, nil
	r.Release()
	k()
}

// unparkTask withdraws t's acquire (Kill path): t leaves the wait queue, or,
// when Release already granted it a unit its wake has not yet delivered, the
// unit passes on. One rule for a killed Task and an unwinding Proc.
func (r *Resource) unparkTask(t *Task) {
	if !r.remove(t) {
		r.Release()
	}
}

// ---------------------------------------------------------------------------
// Gate operations in continuation-passing form

// WaitT parks task t until the gate fires, unless it already fired since the
// caller observed version since — then it reports true and the caller
// continues inline (k never runs).
func (g *Gate) WaitT(t *Task, since uint64, k func()) bool {
	if g.ver != since {
		return true
	}
	g.addWaiter(t)
	t.park(g, k)
	return false
}

// WaitTimeoutT is WaitT with a deadline. The first result reports an inline
// return (k never runs): (true, true) when the gate already fired past
// since, (true, false) when d <= 0. Otherwise t parks and k(fired) runs from
// whichever of the fire or the timeout wins.
func (g *Gate) WaitTimeoutT(t *Task, since uint64, d time.Duration, k func(fired bool)) (bool, bool) {
	if g.ver != since {
		return true, true
	}
	if d <= 0 {
		return true, false
	}
	w := g.addWaiter(t)
	t.gateK = k
	if t.gateFired == nil {
		t.gateFired = func() {
			k := t.gateK
			t.gateK = nil
			k(true)
		}
	}
	t.park(g, t.gateFired)
	g.armTimer(w, d)
	return false, false
}

// unparkTask removes t's gate waiter (Kill path).
func (g *Gate) unparkTask(t *Task) {
	for _, w := range g.waiters {
		if w.t == t {
			g.remove(w)
			g.putWaiter(w)
			return
		}
	}
}
