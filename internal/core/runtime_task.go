// The runtime's stages. Start() hosts every process the runtime spawns,
// except the monitor, on run-to-completion Tasks: the receive contexts of
// services and pipeline frontends, the TCP accept contexts, the client-mqueue
// pumps and retry timers, the replicator pump (replicate.go) and the Remote
// MQ Manager sweep. Their operation sequence — the order of exec charges,
// span stamps, tracer emissions, counter updates, and blocking-primitive
// calls — is what the committed goldens pin (see the seq-parity contract in
// internal/sim): a reordering changes every simulation output.
//
// Every continuation on the unbatched paths is a method value bound once:
// execFrame pools exec calls, and each receive context, manager context,
// client binding and replicator is its own frame, because it has exactly one
// operation in flight.
package core

import (
	"time"

	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// execFrame carries one in-flight task-substrate exec call through its
// serialized and parallel resource holds without per-call closures: the two
// continuations are bound once when the frame is created, and the call's
// (task, start time, shares, k) travel through the frame's fields. finish
// copies everything to locals and recycles the frame before invoking k, so
// an exec issued from inside k reuses it immediately.
type execFrame struct {
	rt    *Runtime
	t     *sim.Task
	t0    sim.Time
	par   time.Duration // parallel share still to hold after the serial one
	total time.Duration // busy total subtracted from elapsed to get the wait
	k     func(qw time.Duration)

	afterSerial func() // pre-bound f.holdCores
	afterCores  func() // pre-bound f.finish
}

func (rt *Runtime) getExecFrame() *execFrame {
	if n := len(rt.execFrames); n > 0 {
		f := rt.execFrames[n-1]
		rt.execFrames = rt.execFrames[:n-1]
		return f
	}
	f := &execFrame{rt: rt}
	f.afterSerial = f.holdCores
	f.afterCores = f.finish
	return f
}

func (f *execFrame) holdCores() {
	f.rt.cores.WithT(f.t, f.par, f.afterCores)
}

func (f *execFrame) finish() {
	rt, t, t0, total, k := f.rt, f.t, f.t0, f.total, f.k
	f.t, f.k = nil, nil
	rt.execFrames = append(rt.execFrames, f)
	k(t.Now().Sub(t0) - total)
}

// execT is exec for tasks: k runs with the queueing wait once the serialized
// and parallel shares have been held.
func (rt *Runtime) execT(t *sim.Task, cost time.Duration, k func(qw time.Duration)) {
	scaled := rt.plat.Machine.Scale(cost)
	ser := time.Duration(float64(scaled) * rt.plat.Params.StackSerialFraction)
	rt.cpuBusy += scaled
	rt.serialBusy += ser
	rt.execCalls++
	f := rt.getExecFrame()
	f.t, f.t0, f.par, f.total, f.k = t, t.Now(), scaled-ser, scaled, k
	rt.serial.WithT(t, ser, f.afterSerial)
}

// execBatchT charges the frontend CPU work of n equal-cost messages processed
// in one dispatcher pass. The serialized section is entered once for the
// whole quantum: its per-message fixed portion (model.SerialBatchFixed — the
// ring doorbell read, dispatcher lock handoff) is paid once, the remainder
// scales with n; the parallel share is n full units, since per-message
// payload work does not amortize. Like execT, k receives the time the
// quantum queued beyond the charged cost — the caller apportions that wait
// across the batch's spans (shareWait) so attribution stays
// telescoping-exact. With n == 1 it is execT, charge for charge.
func (rt *Runtime) execBatchT(t *sim.Task, cost time.Duration, n int, k func(qw time.Duration)) {
	if n <= 1 {
		rt.execT(t, cost, k)
		return
	}
	scaled := rt.plat.Machine.Scale(cost)
	ser1 := time.Duration(float64(scaled) * rt.plat.Params.StackSerialFraction)
	fixed := time.Duration(float64(ser1) * rt.plat.Params.SerialBatchFixed)
	ser := fixed + time.Duration(n)*(ser1-fixed)
	par := time.Duration(n) * (scaled - ser1)
	rt.cpuBusy += ser + par
	rt.serialBusy += ser
	rt.execCalls += uint64(n)
	f := rt.getExecFrame()
	f.t, f.t0, f.par, f.total, f.k = t, t.Now(), par, ser+par, k
	rt.serial.WithT(t, ser, f.afterSerial)
}

// execParallelT is execParallel for tasks: no serialized share, so the frame
// skips straight to the cores hold.
func (rt *Runtime) execParallelT(t *sim.Task, cost time.Duration, k func(qw time.Duration)) {
	scaled := rt.plat.Machine.Scale(cost)
	rt.cpuBusy += scaled
	f := rt.getExecFrame()
	f.t, f.t0, f.par, f.total, f.k = t, t.Now(), scaled, scaled, k
	rt.cores.WithT(t, scaled, f.afterCores)
}

// dispatchBatchT delivers a run of ready datagrams as one dispatcher
// scheduling quantum (Params.Batch.Quantum > 1): the serialized section is
// entered once for the whole run, every message's slot is reserved and its
// reply bookkeeping recorded before any RDMA is posted, and the
// message-bearing writes are posted in doorbell groups with a checkpointed
// completion wait — ceil(k/doorbell) issue charges and ceil(k/cqDrain)
// wakeups for a k-message quantum. The preparation loop is sequential: a
// refresh inside PrepareWriteT parks the task and the loop resumes in its
// continuation.
//
// Bookkeeping must precede posting: with only checkpoint completions
// awaited, an early message of the batch lands — and its response can race
// back through the MQ manager — before the posting context regains control.
// Reserving the pending-reply FIFO entry at preparation time keeps that
// response from being misread as an orphan. StagePushed is stamped by the
// write's delivery hook exactly as in the per-message path.
func (s *Service) dispatchBatchT(t *sim.Task, dgs []netstack.Datagram, k func()) {
	rt := s.rt
	n := len(dgs)
	if n == 0 {
		k()
		return
	}
	for i := range dgs {
		rt.plat.Tracer.Emit(t.Now(), trace.Recv, uint64(len(dgs[i].Payload)), uint64(s.port))
	}
	rt.execBatchT(t, rt.plat.Params.DispatchCost, n, func(qw time.Duration) {
		type preparedWR struct {
			wr rdma.WR
			qp *rdma.QP
		}
		preps := make([]preparedWR, 0, n)
		var prep func(i int)
		post := func() {
			batch := rt.plat.Params.Batch
			wrs := make([]rdma.WR, 0, len(preps))
			var postNext func()
			postNext = func() {
				if len(preps) == 0 {
					k()
					return
				}
				qp := preps[0].qp
				wrs = wrs[:0]
				rest := preps[:0]
				for _, pr := range preps {
					if pr.qp == qp {
						wrs = append(wrs, pr.wr)
					} else {
						rest = append(rest, pr)
					}
				}
				preps = rest
				qp.PostAndWaitT(t, wrs, batch.EffDoorbell(), batch.EffCQDrain(), func(rdma.CQE) {
					postNext()
				})
			}
			postNext()
		}
		finish := func(i, qi int, wr rdma.WR, slot int, err error) {
			if s.admit(t.Now(), qi, slot, err, replyTo{udpFrom: dgs[i].From}, dgs[i].Payload) {
				preps = append(preps, preparedWR{wr: wr, qp: s.queues[qi].q.QP()})
			}
		}
		prep = func(i int) {
			for ; i < n; i++ {
				payload := dgs[i].Payload
				qi := s.pick(dgs[i].From)
				id := trace.SpanID(payload)
				rt.plat.Spans.AddWait(id, trace.PhaseSNIC, shareWait(qw, n, i))
				rt.plat.Spans.Stamp(id, trace.StageDispatch, t.Now())
				rt.plat.Spans.SetQueue(id, qi)
				i, qi := i, qi
				wr, slot, err, inline := s.queues[qi].q.PrepareWriteT(t, payload, 0, func(wr rdma.WR, slot int, err error) {
					finish(i, qi, wr, slot, err)
					prep(i + 1)
				})
				if !inline {
					return
				}
				finish(i, qi, wr, slot, err)
			}
			post()
		}
		prep(0)
	})
}

// rx is one receive context of a service or a pipeline frontend: it takes
// one message at a time — the next datagram of the shared UDP socket, or
// the next message of its TCP connection — charges the protocol stack and
// the dispatcher, and pushes the message into the mqueue its policy picks
// (a pipeline's stage 0). Only a service's context books spans and events.
type rx struct {
	rt   *Runtime
	s    *Service  // the receiving service, or nil
	pl   *Pipeline // the receiving pipeline, or nil
	t    *sim.Task
	sock *netstack.UDPSocket
	conn *netstack.TCPConn // TCP: the context's connection
	cost time.Duration     // the protocol stack's cost per message

	msg  []byte // the message being dispatched
	to   replyTo
	from netstack.Addr
	id   uint64     // its span id
	qi   int        // service: the queue it was steered to
	pq   *pipeQueue // pipeline: the queue it was steered to

	dgK       func(netstack.Datagram)
	msgK      func([]byte, sim.Time, error)
	chargedK  func(time.Duration)
	steerK    func(time.Duration)
	enqueuedK func(slot int, err error)
}

// newRx binds a receive context for service s or pipeline pl; conn is the
// TCP connection it serves, nil for UDP.
func (rt *Runtime) newRx(s *Service, pl *Pipeline, conn *netstack.TCPConn) *rx {
	r := &rx{rt: rt, s: s, pl: pl, conn: conn}
	if s != nil {
		r.sock, r.cost = s.udpSock, rt.stackCost(s.proto)
	} else {
		r.sock, r.cost = pl.udpSock, rt.stackCost(pl.proto)
	}
	r.dgK, r.msgK, r.chargedK, r.steerK, r.enqueuedK = r.gotDatagram, r.gotMsg, r.charged, r.steer, r.enqueued
	return r
}

// run is the body of the context's task.
func (r *rx) run(t *sim.Task) {
	r.t = t
	r.loop()
}

// acceptor returns the body of a TCP frontend's accept task: every
// connection gets a receive context of its own, a task named name.
func (rt *Runtime) acceptor(l *netstack.TCPListener, name string, s *Service, pl *Pipeline) func(*sim.Task) {
	return func(t *sim.Task) {
		var accepted func(*netstack.TCPConn)
		accepted = func(conn *netstack.TCPConn) {
			for ok := true; ok; conn, ok = l.AcceptT(t, accepted) {
				rt.plat.Sim.SpawnTask(name, rt.newRx(s, pl, conn).run)
			}
		}
		if conn, ok := l.AcceptT(t, accepted); ok {
			accepted(conn)
		}
	}
}

// loop takes the next message.
func (r *rx) loop() {
	if r.conn != nil {
		r.conn.RecvQueuedT(r.t, r.msgK)
		return
	}
	if dg, ok := r.sock.RecvT(r.t, r.dgK); ok {
		r.gotDatagram(dg)
	}
}

func (r *rx) gotDatagram(dg netstack.Datagram) {
	r.msg, r.to, r.from = dg.Payload, replyTo{udpFrom: dg.From}, dg.From
	r.arrived(dg.EnqueuedAt)
}

// gotMsg takes one message of the connection; an error ends the context.
func (r *rx) gotMsg(msg []byte, enq sim.Time, err error) {
	if err != nil {
		return
	}
	r.msg, r.to, r.from = msg, replyTo{conn: r.conn}, r.conn.RemoteAddr()
	r.arrived(enq)
}

// arrived stamps the message's arrival and charges the protocol stack.
func (r *rx) arrived(enq sim.Time) {
	rt := r.rt
	if r.s != nil {
		r.id = trace.SpanID(r.msg)
		now := r.t.Now()
		rt.plat.Spans.Stamp(r.id, trace.StageSnicRecv, now)
		if enq > 0 {
			rt.plat.Spans.AddWait(r.id, trace.PhaseNetwork, now.Sub(enq))
		}
	}
	rt.execT(r.t, r.cost, r.chargedK)
}

// charged starts the dispatch: the dispatcher's own cost.
func (r *rx) charged(qw time.Duration) {
	rt := r.rt
	if r.s != nil {
		rt.plat.Spans.AddWait(r.id, trace.PhaseSNIC, qw)
		rt.plat.Tracer.Emit(r.t.Now(), trace.Recv, uint64(len(r.msg)), uint64(r.s.port))
	}
	rt.execT(r.t, rt.plat.Params.DispatchCost, r.steerK)
}

// steer picks the queue and pushes the message into it.
func (r *rx) steer(qw time.Duration) {
	if r.pl != nil {
		r.pq = r.pl.pick(0)
		r.pq.q.PushT(r.t, r.msg, 0, r.enqueuedK)
		return
	}
	s, sp := r.s, r.rt.plat.Spans
	r.qi = s.pick(r.from)
	sp.AddWait(r.id, trace.PhaseSNIC, qw)
	sp.Stamp(r.id, trace.StageDispatch, r.t.Now())
	sp.SetQueue(r.id, r.qi)
	s.queues[r.qi].q.PushT(r.t, r.msg, 0, r.enqueuedK)
}

// enqueued records the push's outcome, then takes the next message.
func (r *rx) enqueued(slot int, err error) {
	now := r.t.Now()
	switch {
	case r.pl != nil && err != nil:
		r.rt.drop(now, DropOverflow, 0)
	case r.pl != nil:
		r.pq.pending[slot] = append(r.pq.pending[slot], r.to)
		r.rt.stats.Received++
	default:
		if err == nil {
			// Fallback for queues without their own span table (first write
			// wins: a queue armed with cfg.Spans stamped at write delivery).
			r.rt.plat.Spans.Stamp(r.id, trace.StagePushed, now)
		}
		r.s.admit(now, r.qi, slot, err, r.to, r.msg)
	}
	r.loop()
}

// admit books the outcome of pushing a client message into queue qi: its
// reply destination and the dispatch, or the drop. It reports whether the
// message was accepted.
func (s *Service) admit(now sim.Time, qi, slot int, err error, to replyTo, payload []byte) bool {
	rt, bq := s.rt, s.queues[qi]
	if err != nil {
		cause := DropOverflow
		if bq.failed {
			cause = DropStalled
		}
		rt.drop(now, cause, uint64(qi))
		rt.plat.Spans.Close(trace.SpanID(payload), trace.SpanDropped, now)
		return false
	}
	bq.pending[slot] = append(bq.pending[slot], to)
	rt.stats.Received++
	rt.plat.Tracer.Emit(now, trace.Dispatch, uint64(qi), uint64(slot))
	if s.repl != nil {
		s.repl.onDispatch(payload)
	}
	return true
}

// qhealth is the watchdog state of one queue: the accelerator progress
// counters last observed and when they last moved.
type qhealth struct {
	rxc, txs uint64
	last     sim.Time
}

// mqManager is one Remote MQ Manager context. A pass refreshes every queue
// header of the accelerator's group with one RDMA READ, then visits the
// context's partition of the queues: drain the TX ring, forward each
// response to the queue's sink, commit, run the watchdog. A pass that
// forwarded nothing parks on the group's activity gate. A drained response
// goes where its queue's sink says: back to the client (respond, or
// respondBatch under batching), to a backend (forwardOut), into the next
// pipeline stage (advance), or to the replicator as a peer ack.
type mqManager struct {
	rt            *Runtime
	h             *AccelHandle
	t             *sim.Task
	first, stride int // owned queues: first, first+stride, ...
	sinks         []sink
	health        []qhealth
	gate          *sim.Gate
	wd            time.Duration
	txBuf         []mqueue.TxMsg // drain buffer: the CQ-drain budget of slots
	batched       bool           // service runs are answered as a batch

	v       uint64         // activity-gate version the pass started from
	drained bool           // the pass forwarded something
	i       int            // queue being visited
	msgs    []mqueue.TxMsg // messages drained from it
	j       int            // the one being forwarded
	to      replyTo        // its reply destination
	qw      time.Duration  // its queueing wait so far
	relayTo *pipeQueue     // its pipeline relay target

	sweepK, refreshedK, committedK, pollK          func()
	wokeK                                          func(fired bool)
	poppedK                                        func(n int)
	respServedK, respSentK, batchServedK           func(time.Duration)
	batchSentK, outServedK, outSentK, relayServedK func(time.Duration)
	lastServedK, lastSentK                         func(time.Duration)
	outReportedK, relayPushedK                     func(slot int, err error)
}

func (rt *Runtime) newMQManager(t *sim.Task, h *AccelHandle, sinks []sink, first, stride int) *mqManager {
	m := &mqManager{
		rt: rt, h: h, t: t, first: first, stride: stride, sinks: sinks,
		gate: h.group.ActivityGate(), wd: rt.plat.Params.MQWatchdogTimeout,
		health: make([]qhealth, h.group.Len()),
	}
	for i := range m.health {
		m.health[i].last = t.Now()
	}
	// TX drain: each ring visit pulls up to the CQ-drain budget of responses
	// in one spanning READ (one slot when unbatched); with batching
	// configured, service responses are forwarded as a batch.
	batch := rt.plat.Params.Batch
	m.txBuf = make([]mqueue.TxMsg, batch.EffCQDrain())
	m.batched = !batch.Unit()
	m.sweepK, m.refreshedK, m.committedK, m.pollK = m.sweep, m.refreshed, m.committed, m.poll
	m.wokeK, m.poppedK = m.woke, m.popped
	m.respServedK, m.respSentK, m.batchServedK = m.respServed, m.respSent, m.batchServed
	m.batchSentK, m.outServedK, m.outSentK, m.relayServedK = m.batchSent, m.outServed, m.outSent, m.relayServed
	m.lastServedK, m.lastSentK = m.lastServed, m.lastSent
	m.outReportedK, m.relayPushedK = m.outReported, m.relayPushed
	return m
}

// sweep starts a pass.
func (m *mqManager) sweep() {
	m.v = m.gate.Version()
	m.h.group.RefreshT(m.t, m.refreshedK)
}

func (m *mqManager) refreshed() {
	m.drained = false
	m.visit(m.first)
}

// visit drains queue i, or ends the pass past the last owned queue.
func (m *mqManager) visit(i int) {
	if i >= m.h.group.Len() {
		m.idle()
		return
	}
	m.i = i
	m.drain()
}

// drain pops the visited queue's next run of TX messages; popped commits
// once the ring is empty (the pop then continues inline with 0).
func (m *mqManager) drain() {
	m.h.group.Queue(m.i).PopTxManyT(m.t, len(m.txBuf), m.txBuf, m.poppedK)
}

func (m *mqManager) popped(n int) {
	if n == 0 {
		m.commit()
		return
	}
	m.forwardRun(m.txBuf[:n])
}

// forwardRun forwards a run of drained messages to the visited queue's
// sink; the queue is drained again once the run is done.
func (m *mqManager) forwardRun(msgs []mqueue.TxMsg) {
	m.drained = true
	m.msgs, m.j = msgs, 0
	if sk := &m.sinks[m.i]; sk.svc != nil && m.batched {
		m.respondBatch(sk)
		return
	}
	m.forward()
}

// forward routes message j of the run.
func (m *mqManager) forward() {
	sk, msg := &m.sinks[m.i], &m.msgs[m.j]
	switch {
	case sk.svc != nil:
		m.respond(msg)
	case sk.cb != nil:
		m.forwardOut(sk.cb, msg)
	case sk.pl != nil:
		m.advance(sk, msg)
	case sk.rp != nil:
		sk.rp.r.onAck(sk.rp, msg.Payload)
		m.next()
	default:
		m.next()
	}
}

// next moves on to the run's next message, or drains the queue again.
func (m *mqManager) next() {
	m.j++
	if m.j < len(m.msgs) {
		m.forward()
		return
	}
	m.drain()
}

// respond routes one TX message of a server queue back to its client.
func (m *mqManager) respond(msg *mqueue.TxMsg) {
	rt, now := m.rt, m.t.Now()
	rt.plat.Tracer.Emit(now, trace.Drain, uint64(msg.Slot), uint64(msg.Corr))
	rt.plat.Spans.Stamp(trace.SpanID(msg.Payload), trace.StageDrain, now)
	rt.execT(m.t, rt.plat.Params.ForwardCost, m.respServedK)
}

func (m *mqManager) respServed(qw time.Duration) {
	sk := &m.sinks[m.i]
	to, ok := m.replyFor(sk, &m.msgs[m.j])
	if !ok {
		m.next()
		return
	}
	m.rt.inTransit++
	m.to, m.qw = to, qw
	m.rt.execT(m.t, m.rt.stackCost(sk.svc.proto), m.respSentK)
}

// replyFor takes the reply destination of a server queue's response; false
// means the response is not sent now: it answers no request (an app bug,
// reported and dropped), or the replicator parked it for peer acks and its
// pump finishes the forward.
func (m *mqManager) replyFor(sk *sink, msg *mqueue.TxMsg) (replyTo, bool) {
	to, ok := popReply(sk.bq.pending, msg.Corr)
	if !ok {
		m.rt.plat.Check.Failf("core.orphan-response",
			"service port %d: TX message for slot %d has no pending request", sk.svc.port, msg.Corr)
		return to, false
	}
	return to, sk.svc.repl == nil || !sk.svc.repl.onResponse(to, msg.Payload)
}

func (m *mqManager) respSent(qw time.Duration) {
	msg := &m.msgs[m.j]
	m.to.send(m.sinks[m.i].svc.udpSock, msg.Payload)
	m.rt.inTransit--
	m.rt.responded(m.t.Now(), msg.Payload, m.qw+qw)
	m.next()
}

// respondBatch routes the run's responses through the serialized section
// once for the whole run (per-message sequencing — FIFO pop, send, stamps —
// is unchanged).
func (m *mqManager) respondBatch(sk *sink) {
	rt, now := m.rt, m.t.Now()
	for i := range m.msgs {
		rt.plat.Tracer.Emit(now, trace.Drain, uint64(m.msgs[i].Slot), uint64(m.msgs[i].Corr))
		rt.plat.Spans.Stamp(trace.SpanID(m.msgs[i].Payload), trace.StageDrain, now)
	}
	rt.execBatchT(m.t, rt.plat.Params.ForwardCost, len(m.msgs), m.batchServedK)
}

func (m *mqManager) batchServed(qw time.Duration) {
	m.qw = qw
	m.rt.execBatchT(m.t, m.rt.stackCost(m.sinks[m.i].svc.proto), len(m.msgs), m.batchSentK)
}

func (m *mqManager) batchSent(qw time.Duration) {
	sk, now := &m.sinks[m.i], m.t.Now()
	qw += m.qw
	for i := range m.msgs {
		msg := &m.msgs[i]
		if to, ok := m.replyFor(sk, msg); ok {
			to.send(sk.svc.udpSock, msg.Payload)
			m.rt.responded(now, msg.Payload, shareWait(qw, len(m.msgs), i))
		}
	}
	m.drain()
}

// forwardOut ships one accelerator-originated message of a client mqueue to
// its backend.
func (m *mqManager) forwardOut(cb *ClientBinding, msg *mqueue.TxMsg) {
	rt, now := m.rt, m.t.Now()
	rt.plat.Tracer.Emit(now, trace.BackendOut, uint64(len(msg.Payload)), uint64(cb.qi))
	rt.plat.Spans.Stamp(trace.SpanID(msg.Payload), trace.StageBackendOut, now)
	rt.execParallelT(m.t, rt.plat.Params.ForwardCost, m.outServedK)
}

func (m *mqManager) outServed(time.Duration) {
	m.rt.stats.Forwarded++
	m.rt.execParallelT(m.t, m.rt.stackCost(m.sinks[m.i].cb.proto), m.outSentK)
}

func (m *mqManager) outSent(time.Duration) {
	rt, cb, payload := m.rt, m.sinks[m.i].cb, m.msgs[m.j].Payload
	switch cb.proto {
	case UDP:
		cb.sock.SendTo(cb.dst, payload)
		if rt.plat.Params.ClientRetryMax > 0 && rt.plat.Params.ClientRetryTimeout > 0 {
			cb.outstanding = append(cb.outstanding, pendingSend{
				payload:  payload,
				deadline: m.t.Now().Add(rt.plat.Params.ClientRetryTimeout),
			})
		}
	case TCP:
		if cb.conn != nil {
			if err := cb.conn.Send(nil, payload); err != nil {
				// Report the connection error through mqueue metadata
				// (§5.1): push an empty error-flagged message.
				cb.bq.q.PushT(m.t, nil, 1, m.outReportedK)
				return
			}
		}
	}
	m.next()
}

func (m *mqManager) outReported(int, error) { m.next() }

// advance handles a pipeline stage's output: relay it into the next stage
// or, after the last stage, answer the client.
func (m *mqManager) advance(sk *sink, msg *mqueue.TxMsg) {
	rt := m.rt
	to, ok := popReply(sk.pq.pending, msg.Corr)
	if !ok {
		// Output without a matching input; drop.
		rt.plat.Check.Failf("core.orphan-response",
			"pipeline port %d stage %d: TX message for slot %d has no pending request",
			sk.pl.port, sk.plStage, msg.Corr)
		m.next()
		return
	}
	m.to = to
	rt.inTransit++
	if sk.plStage+1 < len(sk.pl.stages) {
		// Stage-to-stage relay: one dispatch cost, no network stack.
		rt.execT(m.t, rt.plat.Params.DispatchCost, m.relayServedK)
		return
	}
	rt.execT(m.t, rt.plat.Params.ForwardCost, m.lastServedK)
}

func (m *mqManager) relayServed(time.Duration) {
	pl, stage := m.sinks[m.i].pl, m.sinks[m.i].plStage+1
	pl.relayed++
	m.rt.plat.Tracer.Emit(m.t.Now(), trace.Relay, uint64(stage), 0)
	m.relayTo = pl.pick(stage)
	m.relayTo.q.PushT(m.t, m.msgs[m.j].Payload, 0, m.relayPushedK)
}

func (m *mqManager) relayPushed(slot int, err error) {
	if err != nil {
		m.rt.drop(m.t.Now(), DropOverflow, uint64(m.sinks[m.i].plStage+1))
	} else {
		m.relayTo.pending[slot] = append(m.relayTo.pending[slot], m.to)
	}
	m.rt.inTransit--
	m.next()
}

func (m *mqManager) lastServed(time.Duration) {
	m.rt.execT(m.t, m.rt.stackCost(m.sinks[m.i].pl.proto), m.lastSentK)
}

func (m *mqManager) lastSent(time.Duration) {
	m.to.send(m.sinks[m.i].pl.udpSock, m.msgs[m.j].Payload)
	m.rt.stats.Responded++
	m.rt.inTransit--
	m.next()
}

func (m *mqManager) commit() {
	m.h.group.Queue(m.i).CommitTxT(m.t, m.committedK)
}

// committed runs the watchdog on the visited queue, then visits the next
// owned one.
func (m *mqManager) committed() {
	if m.wd > 0 {
		m.watchdog()
	}
	m.visit(m.i + m.stride)
}

// watchdog marks the visited queue failed when it holds in-flight messages
// with neither accelerator counter advancing for MQWatchdogTimeout, and
// restores it the moment it makes progress.
func (m *mqManager) watchdog() {
	rt, i, now := m.rt, m.i, m.t.Now()
	q := m.h.group.Queue(i)
	rxc, txs := q.Counters()
	hs := &m.health[i]
	switch {
	case rxc != hs.rxc || txs != hs.txs || q.InFlight() == 0:
		hs.rxc, hs.txs, hs.last = rxc, txs, now
		if bq := m.sinks[i].bq; bq != nil && bq.failed {
			bq.failed = false
			rt.stats.Failbacks++
			rt.plat.Tracer.Emit(now, trace.Failover, uint64(i), 1)
		}
	case now.Sub(hs.last) >= m.wd:
		if bq := m.sinks[i].bq; bq != nil && m.sinks[i].svc != nil && !bq.failed {
			bq.failed = true
			rt.stats.Failovers++
			rt.plat.Tracer.Emit(now, trace.Failover, uint64(i), 0)
		}
		// A frozen replication ingest ring is a dead peer: waive its acks
		// and release every response blocked only on it.
		if rp := m.sinks[i].rp; rp != nil {
			rp.r.killPeer(now, rp)
		}
	}
}

// idle ends a pass: a pass that forwarded something sweeps again at once.
// Otherwise — the real manager spins at MQPollInterval — the simulator
// blocks on header activity and re-adds the polling detection delay. While
// any owned queue holds in-flight work the wait is bounded by the watchdog
// timeout, so a fully stalled accelerator (which never fires the gate)
// still gets inspected.
func (m *mqManager) idle() {
	if m.drained {
		m.sweep()
		return
	}
	stuck := false
	if m.wd > 0 {
		for i := m.first; i < m.h.group.Len(); i += m.stride {
			if m.h.group.Queue(i).InFlight() > 0 {
				stuck = true
				break
			}
		}
	}
	if stuck {
		if inline, _ := m.gate.WaitTimeoutT(m.t, m.v, m.wd, m.wokeK); inline {
			m.poll()
		}
		return
	}
	if m.gate.WaitT(m.t, m.v, m.pollK) {
		m.poll()
	}
}

func (m *mqManager) poll() { m.t.Sleep(m.rt.plat.Params.MQPollInterval/2, m.sweepK) }

func (m *mqManager) woke(bool) { m.poll() }

// pump is the body of a client binding's task: it establishes the static
// connection — a bound UDP socket, or one TCP connection to the backend —
// then pushes every backend message it receives into the binding's mqueue.
func (cb *ClientBinding) pump(t *sim.Task) {
	rt := cb.rt
	cb.t = t
	cb.dgK = func(dg netstack.Datagram) { cb.received(dg.Payload) }
	cb.msgK, cb.chargedK, cb.pushedK = cb.gotMsg, cb.charged, cb.pushed
	if cb.proto == TCP {
		rt.plat.NetHost.TCPDialT(t, cb.dst, func(conn *netstack.TCPConn, err error) {
			if err == nil {
				cb.conn = conn
				cb.recv()
			}
		})
		return
	}
	rt.nextEphemeral++
	sock, err := rt.plat.NetHost.UDPBind(52000 + rt.nextEphemeral)
	if err != nil {
		return
	}
	cb.sock = sock
	cb.recv()
}

// recv takes the next backend message.
func (cb *ClientBinding) recv() {
	if cb.conn != nil {
		cb.conn.RecvQueuedT(cb.t, cb.msgK)
		return
	}
	if dg, ok := cb.sock.RecvT(cb.t, cb.dgK); ok {
		cb.received(dg.Payload)
	}
}

// gotMsg takes one message of the TCP connection. A connection error ends
// the pump, after reporting it to the accelerator through mqueue metadata
// (§5.1): an empty error-flagged message.
func (cb *ClientBinding) gotMsg(msg []byte, _ sim.Time, err error) {
	if err != nil {
		cb.bq.q.PushT(cb.t, nil, 1, func(int, error) {})
		return
	}
	cb.received(msg)
}

// received charges the transport's stack cost for one backend message.
func (cb *ClientBinding) received(msg []byte) {
	cb.msg = msg
	cb.rt.execParallelT(cb.t, cb.rt.stackCost(cb.proto), cb.chargedK)
}

func (cb *ClientBinding) charged(time.Duration) {
	rt, now := cb.rt, cb.t.Now()
	if len(cb.outstanding) > 0 {
		// FIFO response matching settles the oldest request (late
		// duplicates of retransmitted requests settle newer ones —
		// harmless for idempotent backends).
		cb.outstanding = cb.outstanding[1:]
	}
	rt.plat.Tracer.Emit(now, trace.BackendIn, uint64(len(cb.msg)), uint64(cb.qi))
	rt.plat.Spans.Stamp(trace.SpanID(cb.msg), trace.StageBackendIn, now)
	cb.bq.q.PushT(cb.t, cb.msg, 0, cb.pushedK)
}

func (cb *ClientBinding) pushed(_ int, err error) {
	if err != nil {
		cb.rt.drop(cb.t.Now(), DropBackend, uint64(cb.qi))
	}
	cb.recv()
}

// retry is the body of a UDP binding's retransmission task: every quarter
// timeout it resends each request whose deadline passed, doubling the next
// deadline per attempt, and drops a request that exhausted its attempts.
func (cb *ClientBinding) retry(t *sim.Task) {
	cb.retryT = t
	cb.checkK, cb.resentK = cb.check, cb.resent
	cb.sleep()
}

func (cb *ClientBinding) sleep() {
	cb.retryT.Sleep(cb.rt.plat.Params.ClientRetryTimeout/4, cb.checkK)
}

func (cb *ClientBinding) check() {
	if cb.sock == nil {
		cb.sleep()
		return
	}
	cb.now = cb.retryT.Now()
	cb.resend()
}

// resend works through the expired requests at the head of the FIFO, as of
// the pass's start time.
func (cb *ClientBinding) resend() {
	rt, now := cb.rt, cb.now
	for len(cb.outstanding) > 0 {
		head := &cb.outstanding[0]
		if now < head.deadline {
			break
		}
		if head.attempts >= rt.plat.Params.ClientRetryMax {
			cb.outstanding = cb.outstanding[1:]
			rt.drop(now, DropBackend, uint64(cb.qi))
			continue
		}
		head.attempts++
		rt.stats.Retries++
		rt.plat.Tracer.Emit(now, trace.Retry, uint64(cb.qi), uint64(head.attempts))
		cb.head = head
		rt.execParallelT(cb.retryT, rt.stackCost(UDP), cb.resentK)
		return
	}
	cb.sleep()
}

func (cb *ClientBinding) resent(time.Duration) {
	cb.sock.SendTo(cb.dst, cb.head.payload)
	cb.head.deadline = cb.now.Add(cb.rt.plat.Params.ClientRetryTimeout << uint(cb.head.attempts))
	cb.resend()
}
