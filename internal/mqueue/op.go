package mqueue

import (
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// opStage names what an op frame does when its next RDMA completion lands.
type opStage uint8

const (
	stRefresh      opStage = iota // queue header read: absorb, continue
	stGroupRefresh                // header-block read: absorb every queue, continue
	stPopMany                     // TX run read: take the messages
	stCommit                      // drained-counter write: clear the dirty mark
	stPushRefresh                 // full-ring header read: absorb, then push or fail
	stPushData                    // split push: payload+metadata landed
	stPushBarrier                 // split push: barrier read done
	stPushDoorbell                // the message-bearing write landed
	stWriteRefresh                // full-ring header read: absorb, then prepare the write or fail
)

// doorbellSet is the one-byte doorbell write of the split push modes. The
// engine only reads write data, so every push can share it.
var doorbellSet = []byte{1}

// op carries one task-form queue operation — a push, a header refresh, a
// TX drain or a commit — through its RDMA completions without per-call
// closures: step, bound once when the frame is created, receives every
// completion and dispatches on the op's stage. Frames recycle through a pool
// shared by a group's queues, so the pool is bounded by the operations in
// flight, not by ring capacity, and a push builds its slot image in the
// frame's recycled buffer. A frame is released before its caller's
// continuation runs: by then the completion has arrived, so the engine is
// done with every buffer the frame lent it.
type op struct {
	pool  *opPool
	q     *Queue
	g     *Group
	t     *sim.Task
	stage opStage

	payload    []byte // push: the message
	errStatus  byte   // push: metadata error status
	slot, off  int    // push: RX slot and its offset; pops: (first) TX slot
	img        []byte // push: slot image, kept across recycling
	spans      *trace.SpanTable
	spanID     uint64 // push: span stamped when the message lands
	spanStage  trace.Stage
	drainStart sim.Time // pops: when the drain began
	out        []TxMsg  // PopTxManyT: one entry per slot of the run read
	cnt        [8]byte  // CommitTxT: the counter being published

	// The caller's continuation: exactly one is set.
	k      func()
	kPush  func(slot int, err error)
	kMany  func(n int)
	kWrite func(wr rdma.WR, slot int, err error)

	step    func(rdma.CQE) // pre-bound o.advance
	deliver func(sim.Time) // pre-bound o.stamp, the push's OnDeliver hook
	landedK func(sim.Time) // pre-bound o.landed, a prepared write's OnDeliver hook
}

// opPool is a free list of op frames.
type opPool struct{ free []*op }

// get takes a frame for an operation on q (nil for group operations).
func (p *opPool) get(q *Queue) *op {
	var o *op
	if n := len(p.free); n > 0 {
		o = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		o = &op{pool: p}
		o.step, o.deliver, o.landedK = o.advance, o.stamp, o.landed
	}
	o.q = q
	return o
}

// release returns the frame to its pool, dropping every reference the
// operation held; the slot image buffer stays for the next push.
func (o *op) release() {
	img, pool, step, deliver, landedK := o.img, o.pool, o.step, o.deliver, o.landedK
	*o = op{pool: pool, img: img[:0], step: step, deliver: deliver, landedK: landedK}
	pool.free = append(pool.free, o)
}

// image builds the SNIC-side slot image of payload in the frame's buffer.
func (o *op) image(payload []byte, errStatus, doorbell byte) []byte {
	o.img = appendSlot(o.img[:0], payload, errStatus, 0, doorbell)
	return o.img
}

// stamp is the push's OnDeliver hook (see Queue.pushStamp).
func (o *op) stamp(at sim.Time) { o.spans.Stamp(o.spanID, o.spanStage, at) }

// landed is the OnDeliver hook of a write the frame prepared for posting
// (Queue.reserveWrite): it stamps the push, then recycles the frame, whose
// slot image the engine has just copied into the ring. A write that never
// lands (a UC write dropped for lack of credits) leaves its frame to the
// garbage collector.
func (o *op) landed(at sim.Time) {
	if o.spans != nil {
		o.stamp(at)
	}
	o.release()
}

// pushSlot reserves the next RX slot and issues the mode-dependent write
// chain (the post-flow-control body of PushT).
func (o *op) pushSlot() {
	q := o.q
	o.slot = q.reserve()
	o.off = q.lay.rxSlot(q.cfg, o.slot)
	o.spans, o.spanID, o.spanStage = q.pushStamp(o.payload)
	if q.cfg.Barrier || q.cfg.NoCoalesce {
		// Split transactions: payload and metadata without the doorbell
		// byte, which only the doorbell write may touch, then (barrier
		// mode) a barrier read, then the doorbell. Without the barrier the
		// two writes may land out of order on relaxed memory (§5.1).
		buf := o.image(o.payload, o.errStatus, 0)
		o.stage = stPushData
		q.qp.WriteT(o.t, q.region, o.off+offError, buf[offError:], o.step)
		return
	}
	// One coalesced write: NIC DMA commits lower addresses first, so data
	// and doorbell in one write is safe on strongly ordered regions (§5.1).
	o.stage = stPushDoorbell
	q.qp.WriteNotifyT(o.t, q.region, o.off, o.image(o.payload, o.errStatus, 1), o.onDeliver(), o.step)
}

// onDeliver is the push's delivery hook, nil when it stamps nothing.
func (o *op) onDeliver() func(sim.Time) {
	if o.spans == nil {
		return nil
	}
	return o.deliver
}

// ringDoorbell issues the split push's separate doorbell write.
func (o *op) ringDoorbell() {
	o.stage = stPushDoorbell
	o.q.qp.WriteNotifyT(o.t, o.q.region, o.off+offDoorbell, doorbellSet, o.onDeliver(), o.step)
}

// resume releases the frame and runs the caller's plain continuation.
func (o *op) resume() {
	k := o.k
	o.release()
	k()
}

// advance runs when the frame's RDMA operation completes.
func (o *op) advance(cqe rdma.CQE) {
	q := o.q
	switch o.stage {
	case stRefresh:
		q.absorbHeader(cqe.Data, cqe.At)
		o.resume()
	case stGroupRefresh:
		o.g.absorb(cqe)
		o.resume()
	case stCommit:
		q.txDirty = false
		o.resume()
	case stPopMany:
		n := q.takeRun(cqe.Data, o.slot, o.drainStart, o.out)
		k := o.kMany
		o.release()
		k(n)
	case stPushRefresh:
		q.absorbHeader(cqe.Data, cqe.At)
		if q.rxHead-q.rxConsumed >= uint64(q.cfg.Slots) {
			q.full++
			k := o.kPush
			o.release()
			k(0, ErrQueueFull)
			return
		}
		o.pushSlot()
	case stPushData:
		if q.cfg.Barrier {
			o.stage = stPushBarrier
			q.qp.BarrierT(o.t, q.region, o.step)
			return
		}
		o.ringDoorbell()
	case stPushBarrier:
		o.ringDoorbell()
	case stPushDoorbell:
		q.pushed++
		slot, k := o.slot, o.kPush
		o.release()
		k(slot, nil)
	case stWriteRefresh:
		q.absorbHeader(cqe.Data, cqe.At)
		payload, errStatus, k := o.payload, o.errStatus, o.kWrite
		o.release()
		if q.rxHead-q.rxConsumed >= uint64(q.cfg.Slots) {
			q.full++
			k(rdma.WR{}, 0, ErrQueueFull)
			return
		}
		wr, slot := q.reserveWrite(payload, errStatus)
		k(wr, slot, nil)
	}
}
