// The runtime's stages. Start() hosts every process the runtime spawns,
// except the monitor, on run-to-completion Tasks: the receive contexts of
// services (pipelines included), the TCP accept contexts, the client-mqueue
// pumps, the replicator pump (replicate.go) and the Remote MQ Manager sweep.
// Their operation sequence — the order of exec charges, span stamps, tracer
// emissions, counter updates, and blocking-primitive calls — is what the
// committed goldens pin (see the seq-parity contract in internal/sim): a
// reordering changes every simulation output.
//
// Every continuation on a request's path is bound once: execFrame pools exec
// calls, and each receive context (batched or not), manager context, client
// binding and replicator is its own frame, because it has exactly one
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

// batchRx is one batched receive context of a UDP service
// (Params.Batch.Quantum > 1): each wakeup takes a quantum of ready datagrams
// from the shared socket, charges the protocol stack for the run once, then
// delivers it as one dispatcher scheduling quantum: the serialized section
// is entered once for the whole run, every message's slot is reserved and
// its reply bookkeeping recorded before any RDMA is posted, and the
// message-bearing writes are posted in doorbell groups with a checkpointed
// completion wait — ceil(k/doorbell) issue charges and ceil(k/cqDrain)
// wakeups for a k-message quantum. The preparation is sequential: a refresh
// inside PrepareWriteT parks the task, and the next message is prepared in
// its continuation. Like rx, the context is its own frame, with its buffers
// and continuations bound once, because it has one quantum in flight.
//
// Bookkeeping must precede posting: with only checkpoint completions
// awaited, an early message of the batch lands — and its response can race
// back through the MQ manager — before the posting context regains control.
// Reserving the pending-reply FIFO entry at preparation time keeps that
// response from being misread as an orphan. StagePushed is stamped by the
// write's delivery hook exactly as in the per-message path.
type batchRx struct {
	rt   *Runtime
	s    *Service
	t    *sim.Task
	cost time.Duration // the protocol stack's cost per message

	dgs   []netstack.Datagram // the quantum's receive buffer
	n     int                 // datagrams in the quantum being dispatched
	qw    time.Duration       // the dispatcher's queueing wait for the quantum
	i, qi int                 // the datagram being prepared and its queue
	preps []preparedWR        // the admitted messages' writes, not yet posted
	wrs   []rdma.WR           // the doorbell run being posted

	gotK      func(int)
	chargedK  func(time.Duration)
	dispatchK func(time.Duration)
	preparedK func(rdma.WR, int, error)
	postedK   func(rdma.CQE)
}

// preparedWR is one admitted message's write and the QP that posts it.
type preparedWR struct {
	wr rdma.WR
	qp *rdma.QP
}

// newBatchRx binds a batched receive context for UDP service s.
func (rt *Runtime) newBatchRx(s *Service) *batchRx {
	quantum := rt.plat.Params.Batch.EffQuantum()
	b := &batchRx{rt: rt, s: s, cost: rt.stackCost(UDP), dgs: make([]netstack.Datagram, quantum),
		preps: make([]preparedWR, 0, quantum), wrs: make([]rdma.WR, 0, quantum)}
	b.gotK, b.chargedK, b.dispatchK, b.preparedK, b.postedK = b.got, b.charged, b.dispatch, b.prepared, b.posted
	return b
}

// run is the body of the context's task.
func (b *batchRx) run(t *sim.Task) {
	b.t = t
	b.loop()
}

// loop takes the next quantum; its receive hands the last one's datagrams
// back to the network, which the pushes copied into the rings.
func (b *batchRx) loop() {
	if n, ok := b.s.udpSock.RecvBatchT(b.t, b.dgs, b.gotK); ok {
		b.got(n)
	}
}

// got stamps the quantum's arrival and charges the protocol stack once.
func (b *batchRx) got(n int) {
	sp, now := b.rt.plat.Spans, b.t.Now()
	b.n = n
	for i := range b.dgs[:n] {
		id := trace.SpanID(b.dgs[i].Payload)
		sp.Stamp(id, trace.StageSnicRecv, now)
		if b.dgs[i].EnqueuedAt > 0 {
			sp.AddWait(id, trace.PhaseNetwork, now.Sub(b.dgs[i].EnqueuedAt))
		}
	}
	b.rt.execBatchT(b.t, b.cost, n, b.chargedK)
}

// charged apportions the stack's queueing wait and charges the dispatcher's
// serialized section once for the quantum.
func (b *batchRx) charged(qw time.Duration) {
	rt, dgs := b.rt, b.dgs[:b.n]
	for i := range dgs {
		rt.plat.Spans.AddWait(trace.SpanID(dgs[i].Payload), trace.PhaseSNIC, shareWait(qw, b.n, i))
	}
	for i := range dgs {
		rt.plat.Spans.Emit(b.t.Now(), trace.Recv, uint64(len(dgs[i].Payload)), uint64(b.s.port))
	}
	rt.execBatchT(b.t, rt.plat.Params.DispatchCost, b.n, b.dispatchK)
}

// dispatch prepares the quantum's writes, from its first message.
func (b *batchRx) dispatch(qw time.Duration) {
	b.qw = qw
	b.prepare(0)
}

// prepare steers message i to its queue and reserves its slot; once every
// message is prepared, it posts the admitted writes.
func (b *batchRx) prepare(i int) {
	if i == b.n {
		b.post()
		return
	}
	s, sp := b.s, b.rt.plat.Spans
	payload := b.dgs[i].Payload
	qi := s.pick(0, b.dgs[i].From)
	id := trace.SpanID(payload)
	sp.AddWait(id, trace.PhaseSNIC, shareWait(b.qw, b.n, i))
	sp.Stamp(id, trace.StageDispatch, b.t.Now())
	sp.SetQueue(id, qi)
	b.i, b.qi = i, qi
	if wr, slot, err, inline := s.stages[0][qi].q.PrepareWriteT(b.t, payload, 0, b.preparedK); inline {
		b.prepared(wr, slot, err)
	}
}

// prepared books message i's push outcome, keeps its write if it was
// accepted, and prepares the next message. It runs inline, or once a
// header refresh the preparation needed completes.
func (b *batchRx) prepared(wr rdma.WR, slot int, err error) {
	dg := &b.dgs[b.i]
	if b.s.admit(b.t.Now(), b.qi, slot, err, replyTo{udpFrom: dg.From}, dg.Payload) {
		b.preps = append(b.preps, preparedWR{wr: wr, qp: b.s.stages[0][b.qi].q.QP()})
	}
	b.prepare(b.i + 1)
}

// post posts the writes of the first pending QP as one batch, then the next
// QP's once it completes, and takes the next quantum when none is left.
func (b *batchRx) post() {
	if len(b.preps) == 0 {
		b.loop()
		return
	}
	qp := b.preps[0].qp
	b.wrs = b.wrs[:0]
	rest := b.preps[:0]
	for _, pr := range b.preps {
		if pr.qp == qp {
			b.wrs = append(b.wrs, pr.wr)
		} else {
			rest = append(rest, pr)
		}
	}
	b.preps = rest
	batch := b.rt.plat.Params.Batch
	qp.PostAndWaitT(b.t, b.wrs, batch.EffDoorbell(), batch.EffCQDrain(), b.postedK)
}

func (b *batchRx) posted(rdma.CQE) { b.post() }

// rx is one receive context of a service: it takes one message at a time —
// the next datagram of the shared UDP socket, or the next message of its TCP
// connection — charges the protocol stack and the dispatcher, and pushes the
// message into the stage-0 mqueue its policy picks.
type rx struct {
	rt   *Runtime
	s    *Service
	t    *sim.Task
	sock *netstack.UDPSocket
	conn *netstack.TCPConn // TCP: the context's connection
	cost time.Duration     // the protocol stack's cost per message

	msg  []byte // the message being dispatched
	to   replyTo
	from netstack.Addr
	id   uint64 // its span id
	qi   int    // the queue it was steered to

	dgK       func(netstack.Datagram)
	msgK      func([]byte, sim.Time, error)
	chargedK  func(time.Duration)
	steerK    func(time.Duration)
	enqueuedK func(slot int, err error)
}

// newRx binds a receive context for service s; conn is the TCP connection it
// serves, nil for UDP.
func (rt *Runtime) newRx(s *Service, conn *netstack.TCPConn) *rx {
	r := &rx{rt: rt, s: s, conn: conn, sock: s.udpSock, cost: rt.stackCost(s.proto)}
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
func (rt *Runtime) acceptor(l *netstack.TCPListener, name string, s *Service) func(*sim.Task) {
	return func(t *sim.Task) {
		var accepted func(*netstack.TCPConn)
		accepted = func(conn *netstack.TCPConn) {
			for ok := true; ok; conn, ok = l.AcceptT(t, accepted) {
				rt.plat.Sim.SpawnTask(name, rt.newRx(s, conn).run)
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
	r.id = trace.SpanID(r.msg)
	now := r.t.Now()
	rt.plat.Spans.Stamp(r.id, trace.StageSnicRecv, now)
	if enq > 0 {
		rt.plat.Spans.AddWait(r.id, trace.PhaseNetwork, now.Sub(enq))
	}
	rt.execT(r.t, r.cost, r.chargedK)
}

// charged starts the dispatch: the dispatcher's own cost.
func (r *rx) charged(qw time.Duration) {
	rt := r.rt
	rt.plat.Spans.AddWait(r.id, trace.PhaseSNIC, qw)
	rt.plat.Spans.Emit(r.t.Now(), trace.Recv, uint64(len(r.msg)), uint64(r.s.port))
	rt.execT(r.t, rt.plat.Params.DispatchCost, r.steerK)
}

// steer picks the queue and pushes the message into it.
func (r *rx) steer(qw time.Duration) {
	s, sp := r.s, r.rt.plat.Spans
	r.qi = s.pick(0, r.from)
	sp.AddWait(r.id, trace.PhaseSNIC, qw)
	sp.Stamp(r.id, trace.StageDispatch, r.t.Now())
	sp.SetQueue(r.id, r.qi)
	s.stages[0][r.qi].q.PushT(r.t, r.msg, 0, r.enqueuedK)
}

// enqueued records the push's outcome, then takes the next message, whose
// receive hands this one back to the network: the push copied it into the
// ring.
func (r *rx) enqueued(slot int, err error) {
	r.s.admit(r.t.Now(), r.qi, slot, err, r.to, r.msg)
	r.loop()
}

// refused books a message the push into queue qi of a stage refused: the
// drop, stalled when the watchdog had failed the queue, and its span.
func (s *Service) refused(now sim.Time, stage, qi int, payload []byte) {
	cause := DropOverflow
	if s.stages[stage][qi].failed {
		cause = DropStalled
	}
	s.rt.drop(now, cause, uint64(qi))
	s.rt.plat.Spans.Close(trace.SpanID(payload), trace.SpanDropped, now)
}

// admit books the outcome of pushing a client message into stage-0 queue qi:
// its reply destination and the dispatch, or the drop. It reports whether
// the message was accepted.
func (s *Service) admit(now sim.Time, qi, slot int, err error, to replyTo, payload []byte) bool {
	rt, bq := s.rt, s.stages[0][qi]
	if err != nil {
		s.refused(now, 0, qi, payload)
		return false
	}
	bq.pending[slot] = append(bq.pending[slot], to)
	rt.stats.Received++
	rt.plat.Spans.Emit(now, trace.Dispatch, uint64(qi), uint64(slot))
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
// forwarded nothing parks on the group's activity gate. A drained run goes
// where its queue's sink says: a last stage's back to the clients (respond),
// an earlier stage's into the next stage (relay), a client queue's to its
// backend (forwardOut), or a peer ingest ring's to the replicator as acks.
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
	tos           []replyTo      // respond: the run's reply destinations

	v       uint64         // activity-gate version the pass started from
	drained bool           // the pass forwarded something
	i       int            // queue being visited
	msgs    []mqueue.TxMsg // messages drained from it
	j       int            // the one being forwarded
	to      replyTo        // its reply destination
	qw      time.Duration  // the run's queueing wait so far
	relayQi int            // relay: the next stage's queue it picked

	sweepK, refreshedK, committedK, pollK          func()
	wokeK                                          func(fired bool)
	poppedK                                        func(n int)
	servedK, sentK, outServedK, outSentK, relayedK func(time.Duration)
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
	// in one spanning READ (one slot when unbatched), and a last stage
	// answers the run as one batch.
	n := rt.plat.Params.Batch.EffCQDrain()
	m.txBuf, m.tos = make([]mqueue.TxMsg, n), make([]replyTo, 0, n)
	m.sweepK, m.refreshedK, m.committedK, m.pollK = m.sweep, m.refreshed, m.committed, m.poll
	m.wokeK, m.poppedK = m.woke, m.popped
	m.servedK, m.sentK, m.outServedK, m.outSentK, m.relayedK = m.served, m.sent, m.outServed, m.outSent, m.relayed
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
	if sk := &m.sinks[m.i]; sk.svc != nil && sk.stage == len(sk.svc.stages)-1 {
		m.respond()
		return
	}
	m.forward()
}

// forward routes message j of the run.
func (m *mqManager) forward() {
	sk, msg := &m.sinks[m.i], &m.msgs[m.j]
	switch {
	case sk.svc != nil:
		m.relay(sk, msg)
	case sk.cb != nil:
		m.forwardOut(sk.cb, msg)
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

// respond answers a last stage's run: one ForwardCost charge over the run,
// then one protocol-stack charge over the responses sent now. Unbatched, a
// run is one message and both charges are execT's.
func (m *mqManager) respond() {
	rt, now := m.rt, m.t.Now()
	for i := range m.msgs {
		rt.plat.Spans.Emit(now, trace.Drain, uint64(m.msgs[i].Slot), uint64(m.msgs[i].Corr))
		rt.plat.Spans.Stamp(trace.SpanID(m.msgs[i].Payload), trace.StageDrain, now)
	}
	rt.execBatchT(m.t, rt.plat.Params.ForwardCost, len(m.msgs), m.servedK)
}

// served takes the run's reply destinations, keeping the responses to send
// now at the front of the run.
func (m *mqManager) served(qw time.Duration) {
	sk, k := &m.sinks[m.i], 0
	m.tos = m.tos[:0]
	for i := range m.msgs {
		if to, ok := m.replyFor(sk, &m.msgs[i]); ok {
			m.msgs[k] = m.msgs[i]
			m.tos = append(m.tos, to)
			k++
		}
	}
	if k == 0 {
		m.drain()
		return
	}
	m.msgs, m.qw = m.msgs[:k], qw
	m.rt.inTransit += uint64(k)
	m.rt.execBatchT(m.t, m.rt.stackCost(sk.svc.proto), k, m.sentK)
}

// replyFor takes the reply destination of a server queue's response; false
// means the response is not sent now: it answers no request (an app bug,
// reported and dropped), or the replicator parked it for peer acks and its
// pump finishes the forward.
func (m *mqManager) replyFor(sk *sink, msg *mqueue.TxMsg) (replyTo, bool) {
	to, ok := m.takeReply(sk, msg)
	return to, ok && (sk.svc.repl == nil || !sk.svc.repl.onResponse(to, msg.Payload))
}

// takeReply takes the reply destination of a stage's output; an output that
// answers no request is an app bug, reported and dropped.
func (m *mqManager) takeReply(sk *sink, msg *mqueue.TxMsg) (replyTo, bool) {
	to, ok := popReply(sk.bq.pending, msg.Corr)
	if !ok {
		m.rt.plat.Check.Failf("core.orphan-response",
			"service port %d stage %d: TX message for slot %d has no pending request", sk.svc.port, sk.stage, msg.Corr)
	}
	return to, ok
}

func (m *mqManager) sent(qw time.Duration) {
	sock, now, k := m.sinks[m.i].svc.udpSock, m.t.Now(), len(m.msgs)
	qw += m.qw
	for i := range m.msgs {
		m.tos[i].send(sock, m.msgs[i].Payload)
		m.rt.inTransit--
		m.rt.responded(now, m.msgs[i].Payload, shareWait(qw, k, i))
	}
	m.drain()
}

// forwardOut ships one accelerator-originated message of a client mqueue to
// its backend.
func (m *mqManager) forwardOut(cb *ClientBinding, msg *mqueue.TxMsg) {
	rt, now := m.rt, m.t.Now()
	rt.plat.Spans.Emit(now, trace.BackendOut, uint64(len(msg.Payload)), uint64(cb.qi))
	rt.plat.Spans.Stamp(trace.SpanID(msg.Payload), trace.StageBackendOut, now)
	rt.execParallelT(m.t, rt.plat.Params.ForwardCost, m.outServedK)
}

func (m *mqManager) outServed(time.Duration) {
	m.rt.stats.Forwarded++
	m.rt.execParallelT(m.t, m.rt.stackCost(TCP), m.outSentK)
}

// outSent hands the message to the backend connection. A connection error,
// or no connection at all (the dial was refused or has not completed), is
// reported through mqueue metadata (§5.1): an empty error-flagged message.
func (m *mqManager) outSent(time.Duration) {
	cb := m.sinks[m.i].cb
	if cb.conn == nil || cb.conn.Send(nil, m.msgs[m.j].Payload) != nil {
		cb.bq.q.PushT(m.t, nil, 1, m.outReportedK)
		return
	}
	m.next()
}

func (m *mqManager) outReported(int, error) { m.next() }

// relay moves an earlier stage's output into the next stage: one dispatch
// cost, no network stack.
func (m *mqManager) relay(sk *sink, msg *mqueue.TxMsg) {
	to, ok := m.takeReply(sk, msg)
	if !ok {
		m.next()
		return
	}
	m.to = to
	m.rt.inTransit++
	m.rt.execT(m.t, m.rt.plat.Params.DispatchCost, m.relayedK)
}

func (m *mqManager) relayed(time.Duration) {
	svc, stage := m.sinks[m.i].svc, m.sinks[m.i].stage+1
	svc.relayed++
	m.rt.plat.Spans.Emit(m.t.Now(), trace.Relay, uint64(stage), 0)
	m.relayQi = svc.pick(stage, m.to.addr())
	svc.stages[stage][m.relayQi].q.PushT(m.t, m.msgs[m.j].Payload, 0, m.relayPushedK)
}

func (m *mqManager) relayPushed(slot int, err error) {
	svc, stage := m.sinks[m.i].svc, m.sinks[m.i].stage+1
	if err != nil {
		svc.refused(m.t.Now(), stage, m.relayQi, m.msgs[m.j].Payload)
	} else {
		bq := svc.stages[stage][m.relayQi]
		bq.pending[slot] = append(bq.pending[slot], m.to)
	}
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
			rt.plat.Spans.Emit(now, trace.Failover, uint64(i), 1)
		}
	case now.Sub(hs.last) >= m.wd:
		if bq := m.sinks[i].bq; bq != nil && m.sinks[i].svc != nil && !bq.failed {
			bq.failed = true
			rt.stats.Failovers++
			rt.plat.Spans.Emit(now, trace.Failover, uint64(i), 0)
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

// pump is the body of a client binding's task: it dials the static TCP
// connection to the backend, then pushes every backend message it receives
// into the binding's mqueue.
func (cb *ClientBinding) pump(t *sim.Task) {
	cb.t = t
	cb.msgK, cb.chargedK, cb.pushedK = cb.gotMsg, cb.charged, cb.pushed
	cb.rt.plat.NetHost.TCPDialT(t, cb.dst, func(conn *netstack.TCPConn, err error) {
		if err == nil {
			cb.conn = conn
			cb.recv()
		}
	})
}

// recv takes the next backend message.
func (cb *ClientBinding) recv() { cb.conn.RecvQueuedT(cb.t, cb.msgK) }

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

// received charges the TCP stack cost for one backend message.
func (cb *ClientBinding) received(msg []byte) {
	cb.msg = msg
	cb.rt.execParallelT(cb.t, cb.rt.stackCost(TCP), cb.chargedK)
}

func (cb *ClientBinding) charged(time.Duration) {
	rt, now := cb.rt, cb.t.Now()
	rt.plat.Spans.Emit(now, trace.BackendIn, uint64(len(cb.msg)), uint64(cb.qi))
	rt.plat.Spans.Stamp(trace.SpanID(cb.msg), trace.StageBackendIn, now)
	cb.bq.q.PushT(cb.t, cb.msg, 0, cb.pushedK)
}

// pushed takes the next backend message, whose receive hands this one back
// to the network: the push copied it into the ring.
func (cb *ClientBinding) pushed(_ int, err error) {
	if err != nil {
		cb.rt.drop(cb.t.Now(), DropBackend, uint64(cb.qi))
	}
	cb.recv()
}
