package mqueue

import (
	"fmt"

	"lynx/internal/sim"
	"lynx/internal/trace"
)

// recvOp carries an AccelQueue's receive in flight through its polling
// steps: each step is a method whose continuation form is bound once, at
// attach, so a receive allocates nothing. The Proc form Recv runs the same
// steps on the process's bridge task (sim.Proc.Await): there is one copy of
// the receive, and both forms consume the same scheduler slots.
type recvOp struct {
	aq   *AccelQueue
	t    *sim.Task
	k    func(Msg) // the caller's continuation; non-nil while in flight
	ver  uint64    // RX gate version observed when the poll began
	slot int       // the RX slot polled
	seen sim.Time  // doorbell observed set: RX-ring residency ends here
	msg  Msg       // read at the payload access, delivered at the consume

	pollK, tryK, doorbellK, wokeK, readK, consumeK func()

	// The Recv adapter: await issues the receive on the process's bridge
	// and delivered completes the process's Await, msg holding the result.
	await     func(t *sim.Task, done func())
	delivered func(Msg)
	done      func()
}

func (o *recvOp) bind(aq *AccelQueue) {
	o.aq = aq
	o.pollK, o.tryK, o.doorbellK = o.poll, o.try, o.doorbell
	o.wokeK, o.readK, o.consumeK = o.woke, o.read, o.consume
	o.await = func(t *sim.Task, done func()) {
		o.done = done
		aq.RecvT(t, o.delivered)
	}
	o.delivered = func(Msg) { o.done() }
}

// poll begins one polling round: it snapshots the RX gate, so a message
// landing from here on cuts a later park short, then tries the slot.
func (o *recvOp) poll() {
	o.ver = o.aq.rxGate.Version()
	o.try()
}

// try waits out any stall window, then charges the doorbell read.
func (o *recvOp) try() {
	aq := o.aq
	if d := aq.stallFor(o.t); d > 0 {
		o.t.Sleep(d, o.tryK)
		return
	}
	o.slot = int(aq.rxTail % uint64(aq.cfg.Slots))
	o.t.Sleep(aq.prof.LocalAccess, o.doorbellK)
}

// doorbell checks the slot's doorbell. Set, it charges the payload read.
// Clear, it parks on the RX gate, unless the gate fired since the poll
// began.
func (o *recvOp) doorbell() {
	aq := o.aq
	if aq.region.Byte(aq.lay.rxSlot(aq.cfg, o.slot)+offDoorbell) == 0 {
		if aq.rxGate.WaitT(o.t, o.ver, o.wokeK) {
			o.woke()
		}
		return
	}
	o.seen = o.t.Now()
	o.t.Sleep(aq.prof.LocalAccess, o.readK)
}

// woke re-adds half a polling interval of detection latency, then polls
// again.
func (o *recvOp) woke() { o.t.Sleep(o.aq.prof.PollInterval/2, o.pollK) }

// read copies the slot's metadata and payload into the receive buffer, then
// charges the consume.
func (o *recvOp) read() {
	aq := o.aq
	off := aq.lay.rxSlot(aq.cfg, o.slot)
	var hdr [HeaderBytes]byte
	aq.region.ReadLocalInto(off, hdr[:])
	size := int(hdr[offSize]) | int(hdr[offSize+1])<<8
	if ck := aq.prof.Check; ck.Enabled() && size > aq.cfg.MaxPayload() {
		ck.Failf("mqueue.slot-corrupt", "RX slot %d size %d exceeds capacity %d",
			o.slot, size, aq.cfg.MaxPayload())
	}
	if cap(aq.rx) < size {
		aq.rx = make([]byte, max(size, aq.cfg.MaxPayload()))
	}
	payload := aq.rx[:size:size]
	aq.region.ReadLocalInto(off+HeaderBytes, payload)
	o.msg = Msg{Payload: payload, Err: hdr[offError], Slot: o.slot}
	o.t.Sleep(aq.prof.LocalAccess, o.consumeK)
}

// consume clears the doorbell, publishes the consumed counter, books the
// RX-ring wait, and delivers the message.
func (o *recvOp) consume() {
	aq := o.aq
	aq.region.WriteLocal(aq.lay.rxSlot(aq.cfg, o.slot)+offDoorbell, []byte{0})
	aq.rxTail++
	var cnt [8]byte
	putLeUint64(cnt[:], aq.rxTail)
	aq.region.WriteLocal(aq.lay.hdr+hdrRxConsumed, cnt[:])
	aq.received++
	if o.msg.Err != 0 {
		aq.errs++
	}
	if sp := aq.cfg.Spans; sp != nil {
		id := trace.SpanID(o.msg.Payload)
		// RX-ring wait: from the SNIC's push (StagePushed) until this
		// context observed the doorbell; the remaining accesses are service.
		if pushedAt, ok := sp.StampAt(id, trace.StagePushed); ok {
			sp.AddWait(id, trace.PhaseQueueing, o.seen.Sub(pushedAt))
		}
		sp.Stamp(id, trace.StageAccelRecv, o.t.Now())
	}
	k := o.k
	o.k = nil
	k(o.msg)
}

// sendOp carries an AccelQueue's send in flight through its free-slot wait
// and its slot write, like recvOp: continuations bound once at attach, one
// copy of the steps for SendT and the Proc forms.
type sendOp struct {
	aq        *AccelQueue
	t         *sim.Task
	k         func(error) // the caller's continuation; non-nil while in flight
	corr      uint16
	payload   []byte
	errStatus byte
	ver       uint64   // TX free-gate version observed when the poll began
	waitStart sim.Time // when the free-slot wait began
	off       int      // the TX slot being written
	img       []byte   // slot image scratch (WriteLocal copies it)

	beginK, pollK, freeK, wokeK, publishK func()

	// The Send adapter: await issues the send whose arguments are in the
	// frame on the process's bridge, and sent completes the process's
	// Await, err holding the result.
	await func(t *sim.Task, done func())
	sent  func(error)
	done  func()
	err   error
}

func (o *sendOp) bind(aq *AccelQueue) {
	o.aq = aq
	o.beginK, o.pollK, o.freeK, o.wokeK, o.publishK = o.begin, o.poll, o.free, o.woke, o.publish
	o.await = func(t *sim.Task, done func()) {
		o.done = done
		o.start(t, o.sent)
	}
	o.sent = func(err error) {
		o.err = err
		o.done()
	}
}

// start runs the send whose arguments are in the frame: an oversize payload
// fails inline, anything else begins the wait for a free slot.
func (o *sendOp) start(t *sim.Task, k func(error)) {
	if o.k != nil {
		panic("mqueue: two sends in flight on one AccelQueue")
	}
	if n, limit := len(o.payload), o.aq.cfg.MaxPayload(); n > limit {
		o.payload = nil
		k(fmt.Errorf("mqueue: payload %d exceeds slot capacity %d", n, limit))
		return
	}
	o.t, o.k = t, k
	o.begin()
}

// begin waits out any stall window, then starts the free-slot wait.
func (o *sendOp) begin() {
	aq := o.aq
	if d := aq.stallFor(o.t); d > 0 {
		o.t.Sleep(d, o.beginK)
		return
	}
	if ck := aq.prof.Check; ck.Enabled() && aq.cfg.Kind == ServerQueue && int(o.corr) >= aq.cfg.Slots {
		ck.Failf("mqueue.corr-range", "response correlates to slot %d of %d", o.corr, aq.cfg.Slots)
	}
	o.waitStart = o.t.Now()
	o.poll()
}

// poll snapshots the free gate and charges one read of the SNIC-written
// consumed counter.
func (o *sendOp) poll() {
	o.ver = o.aq.txFreeGate.Version()
	o.t.Sleep(o.aq.prof.LocalAccess, o.freeK)
}

// free reads the consumed counter. With a free slot it charges the slot
// write; with the ring full it parks on the counter's gate, unless the SNIC
// published since the poll began.
func (o *sendOp) free() {
	aq := o.aq
	var cnt [8]byte
	aq.region.ReadLocalInto(aq.lay.hdr+hdrTxConsumed, cnt[:])
	consumed := leUint64(cnt[:])
	if aq.txHead-consumed >= uint64(aq.cfg.Slots) {
		if aq.txFreeGate.WaitT(o.t, o.ver, o.wokeK) {
			o.woke()
		}
		return
	}
	if sp := aq.cfg.Spans; sp != nil {
		// TX-ring backpressure: time blocked for a free slot beyond the one
		// mandatory counter read is queue wait within the execution phase.
		if blocked := o.t.Now().Sub(o.waitStart) - aq.prof.LocalAccess; blocked > 0 {
			sp.AddWait(trace.SpanID(o.payload), trace.PhaseExec, blocked)
		}
	}
	slot := int(aq.txHead % uint64(aq.cfg.Slots))
	if ck := aq.prof.Check; ck.Enabled() && aq.txHead+1-consumed > uint64(aq.cfg.Slots) {
		ck.Failf("mqueue.ring-bound", "TX overcommit: head %d consumed %d slots %d",
			aq.txHead+1, consumed, aq.cfg.Slots)
	}
	o.off = aq.lay.txSlot(aq.cfg, slot)
	o.t.Sleep(aq.prof.LocalAccess, o.publishK)
}

// woke re-adds half a polling interval of detection latency, then reads the
// counter again.
func (o *sendOp) woke() { o.t.Sleep(o.aq.prof.PollInterval/2, o.pollK) }

// publish writes the slot image, then the sent counter, and completes.
func (o *sendOp) publish() {
	aq := o.aq
	o.img = appendSlot(o.img[:0], o.payload, o.errStatus, o.corr, 1)
	aq.region.WriteLocal(o.off, o.img)
	aq.txHead++
	var cnt [8]byte
	putLeUint64(cnt[:], aq.txHead)
	aq.region.WriteLocal(aq.lay.hdr+hdrTxSent, cnt[:])
	aq.sent++
	aq.cfg.Spans.Stamp(trace.SpanID(o.payload), trace.StageAccelSent, o.t.Now())
	k := o.k
	o.k, o.payload = nil, nil
	k(nil)
}
