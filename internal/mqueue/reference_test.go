package mqueue

import (
	"fmt"

	"lynx/internal/sim"
	"lynx/internal/trace"
)

// The receive and send steps written straight-line on a coroutine Proc: an
// independent implementation with the same charges, in the same order, as
// the task forms RecvT and SendT. diff_test.go holds the task forms, Serve's
// threadblocks and the Proc adapters to it.

// refMaybeStall freezes the accessing accelerator context for the remainder of
// any fault-plan stall window covering the current time — the simulated
// equivalent of a hung threadblock or VCA node. No-op without a plan.
func (aq *AccelQueue) refMaybeStall(p *sim.Proc) {
	for {
		d := aq.prof.Faults.StallRemaining(aq.prof.Accel, aq.index, p.Now())
		if d <= 0 {
			return
		}
		p.Sleep(d)
	}
}

// refTryRecv performs one poll of the next RX slot. It charges one local
// access; if a message is present it consumes it (two further accesses:
// payload read and doorbell clear + consumed-counter update). The payload
// lands in the queue's receive buffer (see Msg).
func (aq *AccelQueue) refTryRecv(p *sim.Proc) (Msg, bool) {
	aq.refMaybeStall(p)
	slot := int(aq.rxTail % uint64(aq.cfg.Slots))
	off := aq.lay.rxSlot(aq.cfg, slot)
	p.Sleep(aq.prof.LocalAccess)
	if aq.region.Byte(off+offDoorbell) == 0 {
		return Msg{}, false
	}
	seen := p.Now() // doorbell observed set: RX-ring residency ends here
	p.Sleep(aq.prof.LocalAccess)
	var hdr [HeaderBytes]byte
	aq.region.ReadLocalInto(off, hdr[:])
	size := int(hdr[offSize]) | int(hdr[offSize+1])<<8
	if ck := aq.prof.Check; ck.Enabled() && size > aq.cfg.MaxPayload() {
		ck.Failf("mqueue.slot-corrupt", "RX slot %d size %d exceeds capacity %d",
			slot, size, aq.cfg.MaxPayload())
	}
	if cap(aq.rx) < size {
		aq.rx = make([]byte, max(size, aq.cfg.MaxPayload()))
	}
	payload := aq.rx[:size:size]
	aq.region.ReadLocalInto(off+HeaderBytes, payload)
	// Clear doorbell and publish consumption.
	p.Sleep(aq.prof.LocalAccess)
	aq.region.WriteLocal(off+offDoorbell, []byte{0})
	aq.rxTail++
	var cnt [8]byte
	putLeUint64(cnt[:], aq.rxTail)
	aq.region.WriteLocal(aq.lay.hdr+hdrRxConsumed, cnt[:])
	aq.received++
	if hdr[offError] != 0 {
		aq.errs++
	}
	if sp := aq.cfg.Spans; sp != nil {
		id := trace.SpanID(payload)
		// RX-ring wait: from the SNIC's push (StagePushed) until this
		// context observed the doorbell; the remaining accesses are service.
		if pushedAt, ok := sp.StampAt(id, trace.StagePushed); ok {
			sp.AddWait(id, trace.PhaseQueueing, seen.Sub(pushedAt))
		}
		sp.Stamp(id, trace.StageAccelRecv, p.Now())
	}
	return Msg{Payload: payload, Err: hdr[offError], Slot: slot}, true
}

// RefRecv blocks until a message arrives. Semantically the accelerator polls
// its doorbell at PollInterval; the simulation blocks on the ring's write
// gate and re-adds half a polling interval of detection latency.
func (aq *AccelQueue) RefRecv(p *sim.Proc) Msg {
	for {
		v := aq.rxGate.Version()
		if m, ok := aq.refTryRecv(p); ok {
			return m
		}
		aq.rxGate.Wait(p, v)
		p.Sleep(aq.prof.PollInterval / 2)
	}
}

// RefSendErr writes one message into the TX ring, blocking (by polling the
// SNIC-written consumed counter) while the ring is full. corr names the RX
// slot being answered on server queues; pass 0 on client queues.
func (aq *AccelQueue) RefSendErr(p *sim.Proc, corr uint16, payload []byte, errStatus byte) error {
	if len(payload) > aq.cfg.MaxPayload() {
		return fmt.Errorf("mqueue: payload %d exceeds slot capacity %d", len(payload), aq.cfg.MaxPayload())
	}
	aq.refMaybeStall(p)
	if ck := aq.prof.Check; ck.Enabled() && aq.cfg.Kind == ServerQueue && int(corr) >= aq.cfg.Slots {
		ck.Failf("mqueue.corr-range", "response correlates to slot %d of %d", corr, aq.cfg.Slots)
	}
	// Wait for the SNIC to have freed this slot (polling the SNIC-written
	// consumed counter; blocked on its write gate in the simulator).
	var consumed uint64
	var cnt [8]byte
	freeWaitStart := p.Now()
	for {
		v := aq.txFreeGate.Version()
		p.Sleep(aq.prof.LocalAccess)
		aq.region.ReadLocalInto(aq.lay.hdr+hdrTxConsumed, cnt[:])
		consumed = leUint64(cnt[:])
		if aq.txHead-consumed < uint64(aq.cfg.Slots) {
			break
		}
		aq.txFreeGate.Wait(p, v)
		p.Sleep(aq.prof.PollInterval / 2)
	}
	if sp := aq.cfg.Spans; sp != nil {
		// TX-ring backpressure: time blocked for a free slot beyond the one
		// mandatory counter read is queue wait within the execution phase.
		if blocked := p.Now().Sub(freeWaitStart) - aq.prof.LocalAccess; blocked > 0 {
			sp.AddWait(trace.SpanID(payload), trace.PhaseExec, blocked)
		}
	}
	slot := int(aq.txHead % uint64(aq.cfg.Slots))
	if ck := aq.prof.Check; ck.Enabled() && aq.txHead+1-consumed > uint64(aq.cfg.Slots) {
		ck.Failf("mqueue.ring-bound", "TX overcommit: head %d consumed %d slots %d",
			aq.txHead+1, consumed, aq.cfg.Slots)
	}
	off := aq.lay.txSlot(aq.cfg, slot)
	p.Sleep(aq.prof.LocalAccess)
	aq.region.WriteLocal(off, appendSlot(nil, payload, errStatus, corr, 1))
	aq.txHead++
	putLeUint64(cnt[:], aq.txHead)
	aq.region.WriteLocal(aq.lay.hdr+hdrTxSent, cnt[:])
	aq.sent++
	aq.cfg.Spans.Stamp(trace.SpanID(payload), trace.StageAccelSent, p.Now())
	return nil
}
