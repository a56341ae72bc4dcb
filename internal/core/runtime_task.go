// Task-substrate hot-path stages of the runtime: the UDP receive workers
// and the Remote MQ Manager sweep, the always-on processes that wake for
// every single message. Start() hosts them on run-to-completion Tasks. Their
// operation sequence — the order of exec charges, span stamps, tracer
// emissions, counter updates, and blocking-primitive calls — is what the
// committed goldens pin (see the seq-parity contract in internal/sim): a
// reordering changes every simulation output.
//
// Every continuation on the unbatched path is a method value bound once:
// execFrame pools exec calls, and each receive worker and manager context is
// its own frame, because it has exactly one operation in flight. Cold and
// connection-scoped paths (TCP accept/rx, pipeline frontends, client
// bindings, retry timers, the replicator pump) stay on coroutine Procs.
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
		finish := func(i, qi int, bq *boundQueue, wr rdma.WR, slot int, err error) {
			id := trace.SpanID(dgs[i].Payload)
			if err != nil {
				cause := DropOverflow
				if bq.failed {
					cause = DropStalled
				}
				rt.drop(t.Now(), cause, uint64(qi))
				rt.plat.Spans.Close(id, trace.SpanDropped, t.Now())
				return
			}
			bq.pending[slot] = append(bq.pending[slot], replyTo{udpFrom: dgs[i].From})
			rt.stats.Received++
			rt.plat.Tracer.Emit(t.Now(), trace.Dispatch, uint64(qi), uint64(slot))
			if s.repl != nil {
				s.repl.onDispatch(dgs[i].Payload)
			}
			preps = append(preps, preparedWR{wr: wr, qp: bq.q.QP()})
		}
		prep = func(i int) {
			for ; i < n; i++ {
				payload := dgs[i].Payload
				qi := s.pick(dgs[i].From)
				bq := s.queues[qi]
				id := trace.SpanID(payload)
				rt.plat.Spans.AddWait(id, trace.PhaseSNIC, shareWait(qw, n, i))
				rt.plat.Spans.Stamp(id, trace.StageDispatch, t.Now())
				rt.plat.Spans.SetQueue(id, qi)
				i, qi, bq := i, qi, bq
				wr, slot, err, inline := bq.q.PrepareWriteT(t, payload, 0, func(wr rdma.WR, slot int, err error) {
					finish(i, qi, bq, wr, slot, err)
					prep(i + 1)
				})
				if !inline {
					return
				}
				finish(i, qi, bq, wr, slot, err)
			}
			post()
		}
		prep(0)
	})
}

// udpRx is one unbatched UDP receive context of a service: it takes one
// datagram at a time, charges the stack cost, and dispatches the message into
// a server mqueue with Service.dispatch's sequence.
type udpRx struct {
	s  *Service
	t  *sim.Task
	dg netstack.Datagram // the datagram being dispatched
	id uint64            // its span id
	qi int               // the queue it was steered to

	handleK   func(netstack.Datagram)
	chargedK  func(time.Duration)
	steerK    func(time.Duration)
	enqueuedK func(slot int, err error)
}

// runUDPRx is the body of one receive task.
func (s *Service) runUDPRx(t *sim.Task) {
	r := &udpRx{s: s, t: t}
	r.handleK, r.chargedK, r.steerK, r.enqueuedK = r.handle, r.charged, r.steer, r.enqueued
	r.loop()
}

func (r *udpRx) loop() {
	if dg, ok := r.s.udpSock.RecvT(r.t, r.handleK); ok {
		r.handle(dg)
	}
}

// handle stamps the datagram's arrival and charges the UDP stack cost.
func (r *udpRx) handle(dg netstack.Datagram) {
	rt := r.s.rt
	r.dg, r.id = dg, trace.SpanID(dg.Payload)
	now := r.t.Now()
	rt.plat.Spans.Stamp(r.id, trace.StageSnicRecv, now)
	if dg.EnqueuedAt > 0 {
		rt.plat.Spans.AddWait(r.id, trace.PhaseNetwork, now.Sub(dg.EnqueuedAt))
	}
	rt.execT(r.t, rt.udpCost(), r.chargedK)
}

// charged starts the dispatch: the dispatcher's own cost.
func (r *udpRx) charged(qw time.Duration) {
	rt := r.s.rt
	rt.plat.Spans.AddWait(r.id, trace.PhaseSNIC, qw)
	rt.plat.Tracer.Emit(r.t.Now(), trace.Recv, uint64(len(r.dg.Payload)), uint64(r.s.port))
	rt.execT(r.t, rt.plat.Params.DispatchCost, r.steerK)
}

// steer picks the queue and pushes the message into it.
func (r *udpRx) steer(qw time.Duration) {
	s, sp := r.s, r.s.rt.plat.Spans
	r.qi = s.pick(r.dg.From)
	sp.AddWait(r.id, trace.PhaseSNIC, qw)
	sp.Stamp(r.id, trace.StageDispatch, r.t.Now())
	sp.SetQueue(r.id, r.qi)
	s.queues[r.qi].q.PushT(r.t, r.dg.Payload, 0, r.enqueuedK)
}

// enqueued records the push's outcome, then takes the next datagram.
func (r *udpRx) enqueued(slot int, err error) {
	s, rt, now := r.s, r.s.rt, r.t.Now()
	bq := s.queues[r.qi]
	if err != nil {
		cause := DropOverflow
		if bq.failed {
			cause = DropStalled
		}
		rt.drop(now, cause, uint64(r.qi))
		rt.plat.Spans.Close(r.id, trace.SpanDropped, now)
	} else {
		rt.plat.Spans.Stamp(r.id, trace.StagePushed, now)
		bq.pending[slot] = append(bq.pending[slot], replyTo{udpFrom: r.dg.From})
		rt.stats.Received++
		rt.plat.Tracer.Emit(now, trace.Dispatch, uint64(r.qi), uint64(slot))
		if s.repl != nil {
			s.repl.onDispatch(r.dg.Payload)
		}
	}
	r.loop()
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
	txBuf         []mqueue.TxMsg // batched drain buffer; nil when unbatched
	one           [1]mqueue.TxMsg

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
	poppedK                                        func(mqueue.TxMsg, bool)
	poppedManyK                                    func(n int)
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
	// TX batch drain: with batching configured, each ring visit pulls up to
	// the CQ-drain budget of responses in one spanning READ and forwards
	// service responses as a batch.
	if batch := rt.plat.Params.Batch; !batch.Unit() {
		m.txBuf = make([]mqueue.TxMsg, batch.EffCQDrain())
	}
	m.sweepK, m.refreshedK, m.committedK, m.pollK = m.sweep, m.refreshed, m.committed, m.poll
	m.wokeK, m.poppedK, m.poppedManyK = m.woke, m.popped, m.poppedMany
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

// drain pops the visited queue's next TX message(s), or commits once its
// ring is empty.
func (m *mqManager) drain() {
	q := m.h.group.Queue(m.i)
	if !q.Ready() {
		m.commit()
		return
	}
	if m.txBuf != nil {
		q.PopTxManyT(m.t, len(m.txBuf), m.txBuf, m.poppedManyK)
		return
	}
	q.PopTxT(m.t, m.poppedK)
}

func (m *mqManager) popped(msg mqueue.TxMsg, ok bool) {
	if !ok {
		m.commit()
		return
	}
	m.one[0] = msg
	m.forwardRun(m.one[:])
}

func (m *mqManager) poppedMany(n int) {
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
	if sk := &m.sinks[m.i]; sk.svc != nil && m.txBuf != nil {
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
	sk, msg := &m.sinks[m.i], &m.msgs[m.j]
	to, ok := popReply(sk.bq.pending, msg.Corr)
	if !ok {
		// Response without a matching request (app bug); drop.
		m.rt.plat.Check.Failf("core.orphan-response",
			"service port %d: TX message for slot %d has no pending request", sk.svc.port, msg.Corr)
		m.next()
		return
	}
	if sk.svc.repl != nil && sk.svc.repl.onResponse(to, msg.Payload) {
		// Parked for peer acks: the replicator's pump finishes the forward.
		m.next()
		return
	}
	m.rt.inTransit++
	m.to, m.qw = to, qw
	m.rt.execT(m.t, sk.svc.protoCost(), m.respSentK)
}

func (m *mqManager) respSent(qw time.Duration) {
	rt, msg, now := m.rt, &m.msgs[m.j], m.t.Now()
	m.sinks[m.i].svc.reply(m.to, msg.Payload)
	rt.stats.Responded++
	rt.inTransit--
	id := trace.SpanID(msg.Payload)
	rt.plat.Spans.AddWait(id, trace.PhaseSNIC, m.qw+qw)
	rt.plat.Spans.Stamp(id, trace.StageForward, now)
	rt.plat.Tracer.Emit(now, trace.Forward, uint64(len(msg.Payload)), 0)
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
	m.rt.execBatchT(m.t, m.sinks[m.i].svc.protoCost(), len(m.msgs), m.batchSentK)
}

func (m *mqManager) batchSent(qw time.Duration) {
	rt, sk, now := m.rt, &m.sinks[m.i], m.t.Now()
	qw += m.qw
	n := len(m.msgs)
	for i := range m.msgs {
		msg := &m.msgs[i]
		to, ok := popReply(sk.bq.pending, msg.Corr)
		if !ok {
			rt.plat.Check.Failf("core.orphan-response",
				"service port %d: TX message for slot %d has no pending request", sk.svc.port, msg.Corr)
			continue
		}
		if sk.svc.repl != nil && sk.svc.repl.onResponse(to, msg.Payload) {
			continue
		}
		rt.inTransit++
		sk.svc.reply(to, msg.Payload)
		rt.stats.Responded++
		rt.inTransit--
		id := trace.SpanID(msg.Payload)
		rt.plat.Spans.AddWait(id, trace.PhaseSNIC, shareWait(qw, n, i))
		rt.plat.Spans.Stamp(id, trace.StageForward, now)
		rt.plat.Tracer.Emit(now, trace.Forward, uint64(len(msg.Payload)), 0)
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
	cost := m.rt.udpCost()
	if m.sinks[m.i].cb.proto == TCP {
		cost = m.rt.tcpCost()
	}
	m.rt.execParallelT(m.t, cost, m.outSentK)
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
	queues := pl.stages[stage]
	m.relayTo = queues[pl.policy.Pick(netstack.Addr{}, len(queues))]
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
	cost := m.rt.udpCost()
	if m.sinks[m.i].pl.proto == TCP {
		cost = m.rt.tcpCost()
	}
	m.rt.execT(m.t, cost, m.lastSentK)
}

func (m *mqManager) lastSent(time.Duration) {
	pl, payload := m.sinks[m.i].pl, m.msgs[m.j].Payload
	switch pl.proto {
	case UDP:
		pl.udpSock.SendTo(m.to.udpFrom, payload)
	case TCP:
		if m.to.conn != nil {
			_ = m.to.conn.Send(nil, payload)
		}
	}
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
