// Package mqueue implements the paper's central abstraction: message queues
// (mqueues) for passing messages between the SmartNIC and accelerators
// (§4.2).
//
// An mqueue is a pair of producer-consumer ring buffers — receive (RX) and
// transmit (TX) — living in *accelerator-local* memory, with per-slot
// notification (doorbell) registers and a small queue header of
// producer/consumer counters. The accelerator touches the rings with plain
// local memory accesses (the entire accelerator-side I/O library is a thin
// wrapper, ~20 LoC in the paper's SGX port); the SmartNIC accesses them
// remotely with one-sided RDMA through the Remote Message Queue Manager.
//
// Following §5.1 ("One RC QP per accelerator"), all mqueues of one
// accelerator share one RDMA queue pair and one memory region, with the
// per-queue headers packed contiguously so the SNIC refreshes the state of
// every queue in a single RDMA READ per polling sweep (Group.Refresh). This
// batching is what lets a small SNIC drive hundreds of mqueues.
//
// Two further properties of the paper's design are modelled explicitly:
//
//   - Metadata/data coalescing (§5.1): the per-message control metadata
//     (size, error status, notification register) is carried in the same
//     RDMA WRITE as the payload, so delivering a message costs one
//     transaction. Valid only when the write-barrier workaround is off.
//   - The RDMA-read write barrier (§5.1): when the accelerator's memory has
//     relaxed DMA ordering, each message instead costs three transactions
//     (payload write, barrier read, doorbell write), adding ~5 µs/message.
package mqueue

import (
	"errors"
	"fmt"
	"time"

	"lynx/internal/check"
	"lynx/internal/fault"
	"lynx/internal/memdev"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// Kind distinguishes the two mqueue flavours of §4.3.
type Kind int

const (
	// ServerQueue is bound to a listening port; responses return to the
	// client a request arrived from (connection-less, UDP-socket-like).
	ServerQueue Kind = iota
	// ClientQueue sends to one statically configured destination and
	// receives its responses (for back-end services like memcached, §6.4).
	ClientQueue
)

// String names the kind.
func (k Kind) String() string {
	if k == ClientQueue {
		return "client"
	}
	return "server"
}

// Slot layout. The paper's metadata is 4 bytes (size, error, doorbell); we
// carry 2 further bytes of correlation index so that server-queue responses
// can name the request slot they answer — the paper folds this into its slot
// addressing, we keep it explicit.
const (
	offDoorbell = 0 // 1 byte: 0 free, 1 full
	offError    = 1 // 1 byte: connection error status from the SNIC (§5.1)
	offSize     = 2 // 2 bytes little-endian payload size
	offCorr     = 4 // 2 bytes little-endian correlation (request slot index)
	HeaderBytes = 6
)

// Per-queue header: three 8-byte little-endian counters.
const (
	hdrRxConsumed = 0  // written by the accelerator: RX messages consumed
	hdrTxSent     = 8  // written by the accelerator: TX messages produced
	hdrTxConsumed = 16 // written by the SNIC (RDMA): TX messages drained
	// QueueHeaderBytes is the header footprint (padded to 32).
	QueueHeaderBytes = 32
)

// Config shapes one mqueue.
type Config struct {
	Kind     Kind
	Slots    int // ring entries per direction
	SlotSize int // bytes per entry including HeaderBytes
	// Barrier enables the §5.1 RDMA-read write barrier before each
	// doorbell (required for correctness on relaxed-ordering memory,
	// disabled in the paper's evaluation and by default here).
	Barrier bool
	// NoCoalesce disables metadata/data coalescing (ablation): payload and
	// doorbell go in separate RDMA writes.
	NoCoalesce bool
	// Check, when enabled, receives ring-bound and counter-monotonicity
	// violations observed on the SNIC side of the queue. Nil costs one
	// pointer test per operation.
	Check *check.Checker
	// Spans, when non-nil, receives SNIC-side queue-wait attribution: a TX
	// drain books the TX-ring residency (drain start minus StageAccelSent)
	// against the span's queueing phase. Nil costs one pointer test per
	// drain.
	Spans *trace.SpanTable
	// ReplSpans, when non-nil, marks the queue as a replication ingest ring:
	// each record-bearing write stamps StageReplPushed for the record's span
	// into this table (the *origin's* span table — replica deliveries link
	// back to the origin span through the shared 8-byte wire-seq id) at its
	// delivery instant. First write wins, so the stamp is the earliest peer
	// delivery.
	ReplSpans *trace.SpanTable
}

func (c *Config) validate() error {
	if c.Slots <= 0 || c.SlotSize <= HeaderBytes {
		return fmt.Errorf("mqueue: invalid geometry slots=%d slotSize=%d", c.Slots, c.SlotSize)
	}
	return nil
}

// RingBytes is the rings-only footprint of one queue (without its header).
func (c Config) RingBytes() int { return 2 * c.Slots * c.SlotSize }

// Footprint returns the bytes of accelerator memory one standalone mqueue
// occupies (header + rings).
func (c Config) Footprint() int { return QueueHeaderBytes + c.RingBytes() }

// MaxPayload returns the largest payload one slot carries.
func (c Config) MaxPayload() int { return c.SlotSize - HeaderBytes }

// GroupFootprint returns the region bytes n grouped queues occupy: a packed
// header block followed by the rings.
func GroupFootprint(c Config, n int) int {
	return n*QueueHeaderBytes + n*c.RingBytes()
}

// ErrQueueFull reports RX ring exhaustion (accelerator not keeping up).
var ErrQueueFull = errors.New("mqueue: RX ring full")

// layout pins one queue's pieces within the shared region.
type layout struct {
	hdr  int // queue header offset
	ring int // rings offset (RX then TX)
}

func (l layout) rxSlot(c Config, slot int) int { return l.ring + slot*c.SlotSize }
func (l layout) txSlot(c Config, slot int) int { return l.ring + (c.Slots+slot)*c.SlotSize }

// ---------------------------------------------------------------------------
// SNIC side

// Queue is the SmartNIC-side handle of one mqueue, operated through a QP by
// the Remote Message Queue Manager. All methods must be called from SNIC
// processes.
type Queue struct {
	cfg    Config
	region *memdev.Region
	lay    layout
	qp     *rdma.QP

	rxHead     uint64   // next RX sequence to fill
	rxConsumed uint64   // accelerator's consumed-RX counter (cached)
	txSeen     uint64   // accelerator's sent-TX counter (cached)
	txTail     uint64   // TX messages we have drained
	txDirty    bool     // txConsumed needs publishing to the accelerator
	hdrAt      sim.Time // wire instant of the freshest absorbed header snapshot

	// ops is the frame pool of the queue's task-form operations, shared by
	// every queue of a group (see op).
	ops *opPool
	// drained holds the payloads of the last drained run; TxMsg.Payload
	// views it until the next drain of this queue overwrites it.
	drained []byte

	pushed, polled, full uint64
}

// New creates the SNIC-side view of a standalone mqueue at base within
// region, reached through qp.
func New(region *memdev.Region, base int, cfg Config, qp *rdma.QP) (*Queue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if base+cfg.Footprint() > region.Size() {
		return nil, fmt.Errorf("mqueue: footprint %d at base %d exceeds region %d",
			cfg.Footprint(), base, region.Size())
	}
	return &Queue{cfg: cfg, region: region, qp: qp, ops: &opPool{},
		lay: layout{hdr: base, ring: base + QueueHeaderBytes}}, nil
}

// Config returns the queue geometry.
func (q *Queue) Config() Config { return q.cfg }

// appendSlot appends the slot image — header, then payload — to dst.
func appendSlot(dst, payload []byte, errStatus byte, corr uint16, doorbell byte) []byte {
	n := len(payload)
	dst = append(dst, doorbell, errStatus, byte(n), byte(n>>8), byte(corr), byte(corr>>8))
	return append(dst, payload...)
}

// Push delivers one message into the accelerator's RX ring, returning the
// slot used. It fails with ErrQueueFull when the ring has no free slot
// (after refreshing the accelerator's counters once via RDMA).
func (q *Queue) Push(p *sim.Proc, payload []byte, errStatus byte) (slot int, err error) {
	p.Await(func(t *sim.Task, done func()) {
		q.PushT(t, payload, errStatus, func(s int, e error) { slot, err = s, e; done() })
	})
	return slot, err
}

// QP returns the queue pair this queue's transfers ride on. Queues of one
// group share a QP, which is what lets a dispatcher quantum post writes for
// several queues under one doorbell.
func (q *Queue) QP() *rdma.QP { return q.qp }

// PushT is Push for run-to-completion tasks: k runs with the slot used (or
// the error) once the message-bearing writes complete. The message's span
// stamp is recorded when its write is delivered into the RX ring, not when
// the completion returns: the accelerator can consume the message as soon as
// the doorbell lands, which under load beats the completion's way back. k
// runs inline only on immediate validation failure. The push travels in a
// pooled frame (see op), so it allocates nothing.
func (q *Queue) PushT(t *sim.Task, payload []byte, errStatus byte, k func(slot int, err error)) {
	if len(payload) > q.cfg.MaxPayload() {
		k(0, fmt.Errorf("mqueue: payload %d exceeds slot capacity %d", len(payload), q.cfg.MaxPayload()))
		return
	}
	o := q.ops.get(q)
	o.t, o.payload, o.errStatus, o.kPush = t, payload, errStatus, k
	if q.rxHead-q.rxConsumed >= uint64(q.cfg.Slots) {
		o.stage = stPushRefresh
		q.qp.ReadCQET(t, q.region, q.lay.hdr, 16, o.step)
		return
	}
	o.pushSlot()
}

// PrepareWriteT reserves the next RX slot and returns the coalesced work
// request that delivers payload into it, without posting. Callers collect
// WRs from several PrepareWriteT calls — across all queues of a group, which
// share a QP — and post them together (rdma.PostAndWaitT) so a k-message
// quantum costs ceil(k/doorbell) issue charges and ceil(k/cqDrain) wakeups
// instead of k of each. Flow control (one header refresh retry, then
// ErrQueueFull), ring-bound checking and delivery-time span stamping are
// Push's. When no header refresh is needed (the common case — the ring has
// known free slots) the WR returns inline with ok=true and k never runs;
// otherwise the task parks in the refresh and k runs with the result.
// Coalesced mode only: the barrier and no-coalesce ablations model
// per-message transaction splits that multi-WQE posting cannot honestly
// amortize.
func (q *Queue) PrepareWriteT(t *sim.Task, payload []byte, errStatus byte, k func(rdma.WR, int, error)) (rdma.WR, int, error, bool) {
	if q.cfg.Barrier || q.cfg.NoCoalesce {
		return rdma.WR{}, 0, fmt.Errorf("mqueue: PrepareWriteT requires coalesced mode"), true
	}
	if len(payload) > q.cfg.MaxPayload() {
		return rdma.WR{}, 0, fmt.Errorf("mqueue: payload %d exceeds slot capacity %d", len(payload), q.cfg.MaxPayload()), true
	}
	if q.rxHead-q.rxConsumed >= uint64(q.cfg.Slots) {
		q.RefreshT(t, func() {
			if q.rxHead-q.rxConsumed >= uint64(q.cfg.Slots) {
				q.full++
				k(rdma.WR{}, 0, ErrQueueFull)
				return
			}
			wr, slot := q.reserveWrite(payload, errStatus)
			k(wr, slot, nil)
		})
		return rdma.WR{}, 0, nil, false
	}
	wr, slot := q.reserveWrite(payload, errStatus)
	return wr, slot, nil, true
}

// reserve takes the next RX slot. Pushes reserve before any yield: several
// dispatcher contexts may push into one queue concurrently, and a slot must
// not be computed from a stale head.
func (q *Queue) reserve() int {
	slot := int(q.rxHead % uint64(q.cfg.Slots))
	q.rxHead++
	if ck := q.cfg.Check; ck.Enabled() && q.rxHead-q.rxConsumed > uint64(q.cfg.Slots) {
		ck.Failf("mqueue.ring-bound", "RX overcommit: head %d consumed %d slots %d",
			q.rxHead, q.rxConsumed, q.cfg.Slots)
	}
	return slot
}

// reserveWrite reserves the next RX slot and builds its coalesced WR (the
// non-blocking tail of PrepareWriteT and PushAsync).
func (q *Queue) reserveWrite(payload []byte, errStatus byte) (rdma.WR, int) {
	slot := q.reserve()
	q.pushed++
	return rdma.WR{
		Op:        rdma.OpWrite,
		Region:    q.region,
		Offset:    q.lay.rxSlot(q.cfg, slot),
		Data:      appendSlot(make([]byte, 0, HeaderBytes+len(payload)), payload, errStatus, 0, 1),
		OnDeliver: q.stampPushed(payload),
	}, slot
}

// pushStamp names the span stamp a push of payload records at its write's
// delivery instant: StagePushed into the queue's span table or, on
// replication ingest rings, StageReplPushed into the origin's table. A nil
// table means no stamp (no span table, or a payload without a span id).
func (q *Queue) pushStamp(payload []byte) (*trace.SpanTable, uint64, trace.Stage) {
	sp, stage := q.cfg.Spans, trace.StagePushed
	if rp := q.cfg.ReplSpans; rp != nil {
		sp, stage = rp, trace.StageReplPushed
	}
	if sp == nil {
		return nil, 0, 0
	}
	id := trace.SpanID(payload)
	if id == 0 {
		return nil, 0, 0
	}
	return sp, id, stage
}

// stampPushed returns the OnDeliver hook recording pushStamp's stamp; nil
// when there is none (keeps the uninstrumented push path allocation-free).
func (q *Queue) stampPushed(payload []byte) func(at sim.Time) {
	sp, id, stage := q.pushStamp(payload)
	if sp == nil {
		return nil
	}
	return func(at sim.Time) { sp.Stamp(id, stage, at) }
}

// PushAsync delivers one message like Push but does not wait for the RDMA
// write to complete — the posting context moves on immediately (hardware
// pipelines like the Innova AFU, §5.2). Only valid in the default coalesced
// mode. Flow control uses cached counters; callers should Refresh
// periodically.
func (q *Queue) PushAsync(p *sim.Proc, payload []byte, errStatus byte) (int, error) {
	if q.cfg.Barrier || q.cfg.NoCoalesce {
		return 0, fmt.Errorf("mqueue: PushAsync requires coalesced mode")
	}
	if len(payload) > q.cfg.MaxPayload() {
		return 0, fmt.Errorf("mqueue: payload %d exceeds slot capacity %d", len(payload), q.cfg.MaxPayload())
	}
	if q.rxHead-q.rxConsumed >= uint64(q.cfg.Slots) {
		q.full++
		return 0, ErrQueueFull
	}
	wr, slot := q.reserveWrite(payload, errStatus)
	q.qp.Post(p, wr)
	return slot, nil
}

// Refresh re-reads this queue's header counters with one RDMA READ.
func (q *Queue) Refresh(p *sim.Proc) {
	p.Await(q.RefreshT)
}

// RefreshT is Refresh for tasks: k runs once the header read lands and the
// cached counters are updated.
func (q *Queue) RefreshT(t *sim.Task, k func()) {
	o := q.ops.get(q)
	o.t, o.k, o.stage = t, k, stRefresh
	q.qp.ReadCQET(t, q.region, q.lay.hdr, 16, o.step)
}

// absorbHeader ingests the accelerator-written half of a header block. at is
// the wire instant the READ snapshotted memory (CQE.At), not its delivery
// time: RC completions are delivered in posting order, but a transport-level
// retry (fault plan RDMAErrRate) can delay an earlier READ's wire trip past a
// later one's, so a newer snapshot may be absorbed first. A stale snapshot is
// simply dropped — absorbing it would make the monotonic counters appear to
// run backwards (the false positive PR 7 documented).
func (q *Queue) absorbHeader(raw []byte, at sim.Time) {
	if at < q.hdrAt {
		return
	}
	q.hdrAt = at
	rxConsumed := leUint64(raw[hdrRxConsumed:])
	txSeen := leUint64(raw[hdrTxSent:])
	if ck := q.cfg.Check; ck.Enabled() {
		// The accelerator's counters only ever advance, never past what the
		// SNIC produced (RX) or more than a ring beyond what it drained (TX).
		if rxConsumed < q.rxConsumed || txSeen < q.txSeen {
			ck.Failf("mqueue.counter-monotonic", "header went backwards: rxConsumed %d->%d txSeen %d->%d",
				q.rxConsumed, rxConsumed, q.txSeen, txSeen)
		}
		if rxConsumed > q.rxHead {
			ck.Failf("mqueue.counter-bound", "rxConsumed %d beyond pushed head %d", rxConsumed, q.rxHead)
		}
		if txSeen > q.txTail+uint64(q.cfg.Slots) {
			ck.Failf("mqueue.ring-bound", "TX overcommit: seen %d drained %d slots %d",
				txSeen, q.txTail, q.cfg.Slots)
		}
	}
	q.rxConsumed = rxConsumed
	q.txSeen = txSeen
}

// Ready reports whether, per the cached counters, the TX ring has messages.
func (q *Queue) Ready() bool { return q.txSeen > q.txTail }

// TxMsg is one message drained from the accelerator's TX ring. Payload is
// lent from the queue's drain buffer: it stays valid until the next
// PopTxMany or PopTxManyT on the same queue, so a consumer that keeps a
// message longer must copy it.
type TxMsg struct {
	Payload []byte
	Corr    uint16 // RX slot index this responds to (server queues)
	Slot    int
}

// takeTx consumes the TX message in raw, the image of the next TX slot
// (index slot) read by a drain that started at drainStart: it appends the
// payload to the drain buffer, advances the drain counters and books the
// TX-ring wait. ok is false when the doorbell is clear — counters said ready
// but the slot write is not visible, which cannot happen with local
// accelerator stores (strong ordering); kept as a guard.
func (q *Queue) takeTx(raw []byte, slot int, drainStart sim.Time) (TxMsg, bool) {
	if raw[offDoorbell] == 0 {
		q.cfg.Check.Failf("mqueue.doorbell-miss",
			"TX slot %d counted ready (seen %d, drained %d) but doorbell clear", slot, q.txSeen, q.txTail)
		return TxMsg{}, false
	}
	size := int(raw[offSize]) | int(raw[offSize+1])<<8
	corr := uint16(raw[offCorr]) | uint16(raw[offCorr+1])<<8
	if size > q.cfg.MaxPayload() {
		size = q.cfg.MaxPayload()
	}
	start := len(q.drained)
	q.drained = append(q.drained, raw[HeaderBytes:HeaderBytes+size]...)
	payload := q.drained[start:len(q.drained):len(q.drained)]
	q.txTail++
	q.txDirty = true
	q.polled++
	if sp := q.cfg.Spans; sp != nil {
		// TX-drain wait: the response sat in the ring from its publication
		// (StageAccelSent) until this sweep reached it.
		id := trace.SpanID(payload)
		if sentAt, ok := sp.StampAt(id, trace.StageAccelSent); ok {
			sp.AddWait(id, trace.PhaseQueueing, drainStart.Sub(sentAt))
		}
	}
	return TxMsg{Payload: payload, Corr: corr, Slot: slot}, true
}

// takeRun consumes len(out) consecutive TX slots from raw, starting at slot
// first, stopping at the first clear doorbell; it returns the count taken.
// The run's payloads overwrite the previous run's in the drain buffer, which
// is sized for a full run up front so that no append moves it mid-run.
func (q *Queue) takeRun(raw []byte, first int, drainStart sim.Time, out []TxMsg) int {
	if need := len(out) * q.cfg.MaxPayload(); cap(q.drained) < need {
		q.drained = make([]byte, 0, need)
	}
	q.drained = q.drained[:0]
	for i := range out {
		msg, ok := q.takeTx(raw[i*q.cfg.SlotSize:], first+i, drainStart)
		if !ok {
			return i
		}
		out[i] = msg
	}
	return len(out)
}

// txRun clamps a drain budget to the ready backlog and the ring wrap,
// returning the first TX slot of the run and the run's length.
func (q *Queue) txRun(budget, room int) (first, n int) {
	if budget > room {
		budget = room
	}
	if backlog := q.TxBacklog(); budget > backlog {
		budget = backlog
	}
	first = int(q.txTail % uint64(q.cfg.Slots))
	if run := q.cfg.Slots - first; budget > run {
		budget = run
	}
	return first, budget
}

// PopTxMany drains up to budget TX messages with a single RDMA READ spanning
// the contiguous run of ready slots, storing them into out and returning the
// count. The run stops at the ring wrap (the next call picks up the
// remainder), so one sweep visit costs at most two read round trips instead
// of one per message. It is the one TX drain: an unbatched drainer passes a
// one-slot out, which reads exactly that slot. The caller must eventually
// CommitTx so the accelerator sees the slots freed. The payloads stored in
// out are valid until the queue's next drain (see TxMsg).
func (q *Queue) PopTxMany(p *sim.Proc, budget int, out []TxMsg) (n int) {
	p.Await(func(t *sim.Task, done func()) {
		q.PopTxManyT(t, budget, out, func(k int) { n = k; done() })
	})
	return n
}

// PopTxManyT is PopTxMany for tasks: k runs with the number of messages
// stored into out. k runs inline (with 0) only when nothing is ready.
func (q *Queue) PopTxManyT(t *sim.Task, budget int, out []TxMsg, k func(n int)) {
	first, n := q.txRun(budget, len(out))
	if n <= 0 {
		k(0)
		return
	}
	o := q.ops.get(q)
	o.t, o.kMany, o.stage = t, k, stPopMany
	o.drainStart = t.Now()
	o.slot, o.out = first, out[:n]
	q.qp.ReadCQET(t, q.region, q.lay.txSlot(q.cfg, first), n*q.cfg.SlotSize, o.step)
}

// CommitTx publishes the drained-TX counter to the accelerator (one RDMA
// WRITE), releasing the slots for reuse. No-op when nothing was drained
// since the last commit.
func (q *Queue) CommitTx(p *sim.Proc) {
	p.Await(q.CommitTxT)
}

// CommitTxT is CommitTx for tasks: k runs once the counter write completes.
// k runs inline when nothing was drained since the last commit. The counter
// travels in the frame until the write completes.
func (q *Queue) CommitTxT(t *sim.Task, k func()) {
	if !q.txDirty {
		k()
		return
	}
	o := q.ops.get(q)
	o.t, o.k, o.stage = t, k, stCommit
	putLeUint64(o.cnt[:], q.txTail)
	q.qp.WriteT(t, q.region, q.lay.hdr+hdrTxConsumed, o.cnt[:], o.step)
}

// InFlight reports RX messages pushed but not yet known consumed.
func (q *Queue) InFlight() int { return int(q.rxHead - q.rxConsumed) }

// Slots reports the ring capacity per direction.
func (q *Queue) Slots() int { return q.cfg.Slots }

// TxBacklog reports TX messages the accelerator has published (per the
// cached counters) that the MQ manager has not yet drained.
func (q *Queue) TxBacklog() int { return int(q.txSeen - q.txTail) }

// Counters returns the accelerator progress counters as last refreshed: RX
// messages consumed and TX messages produced. The MQ-manager watchdog uses
// them to detect a stalled accelerator context (in-flight messages with
// neither counter advancing).
func (q *Queue) Counters() (rxConsumed, txSeen uint64) { return q.rxConsumed, q.txSeen }

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLeUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// ---------------------------------------------------------------------------
// Groups (one RC QP / one region per accelerator, §5.1)

// Group is the SNIC-side view of all mqueues of one accelerator: a packed
// header block plus per-queue rings, all reached through one shared QP.
type Group struct {
	region *memdev.Region
	base   int
	qp     *rdma.QP
	queues []*Queue
	ops    *opPool // shared with every queue of the group

	refreshes uint64
	activity  *sim.Gate
}

// NewGroup lays out n queues at base within region.
func NewGroup(region *memdev.Region, base int, cfg Config, n int, qp *rdma.QP) (*Group, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("mqueue: group needs at least one queue")
	}
	if base+GroupFootprint(cfg, n) > region.Size() {
		return nil, fmt.Errorf("mqueue: group footprint %d at base %d exceeds region %d",
			GroupFootprint(cfg, n), base, region.Size())
	}
	g := &Group{region: region, base: base, qp: qp, ops: &opPool{}}
	ringBase := base + n*QueueHeaderBytes
	for i := 0; i < n; i++ {
		g.queues = append(g.queues, &Queue{
			cfg: cfg, region: region, qp: qp, ops: g.ops,
			lay: layout{hdr: base + i*QueueHeaderBytes, ring: ringBase + i*cfg.RingBytes()},
		})
	}
	return g, nil
}

// Len reports the number of queues.
func (g *Group) Len() int { return len(g.queues) }

// Queue returns queue i.
func (g *Group) Queue(i int) *Queue { return g.queues[i] }

// Refresh reads the whole header block in one RDMA READ and updates every
// queue's cached counters — the batching that makes polling hundreds of
// mqueues affordable.
func (g *Group) Refresh(p *sim.Proc) {
	p.Await(g.RefreshT)
}

// absorb ingests a header-block snapshot into every queue's counters.
func (g *Group) absorb(cqe rdma.CQE) {
	for i, q := range g.queues {
		q.absorbHeader(cqe.Data[i*QueueHeaderBytes:], cqe.At)
	}
	g.refreshes++
}

// RefreshT is Refresh for tasks: one RDMA READ covers every queue header in
// the group; k runs once all cached counters are updated.
func (g *Group) RefreshT(t *sim.Task, k func()) {
	o := g.ops.get(nil)
	o.g, o.t, o.k, o.stage = g, t, k, stGroupRefresh
	g.qp.ReadCQET(t, g.region, g.base, len(g.queues)*QueueHeaderBytes, o.step)
}

// ActivityGate returns a gate fired whenever the accelerator writes any
// queue header of the group (publishing new TX messages or RX consumption).
// The Remote MQ Manager blocks on it between polling sweeps instead of
// spinning, then charges its polling interval on wake-up.
func (g *Group) ActivityGate() *sim.Gate {
	if g.activity == nil {
		g.activity = g.region.Watch(g.base, len(g.queues)*QueueHeaderBytes)
	}
	return g.activity
}

// ---------------------------------------------------------------------------
// Accelerator side

// AccessProfile captures how expensive the accelerator's own accesses to
// mqueue memory are: device-local for GPUs (§4.2: "the latency of enqueuing
// ... is exactly the latency of accelerator local memory access"), mapped
// host memory for the VCA workaround (§5.4).
type AccessProfile struct {
	// LocalAccess is the cost of one ring access (header or payload).
	LocalAccess time.Duration
	// PollInterval is the doorbell polling period while idle.
	PollInterval time.Duration
	// Accel names the accelerator owning the queues, for fault targeting.
	Accel string
	// Faults is the fault plan consulted on every ring access; inside a
	// stall window the accessing context freezes until the window closes.
	// Nil injects nothing.
	Faults *fault.Plan
	// Spans, when non-nil, receives accelerator-side stage timestamps
	// (RX consume, TX publish) for request-scoped tracing.
	Spans *trace.SpanTable
	// Check, when enabled, receives slot-corruption and correlation-range
	// violations observed on the accelerator side.
	Check *check.Checker
}

// AccelQueue is the accelerator-side handle: the lightweight I/O layer that
// replaces a full network stack on the accelerator (§4.3).
type AccelQueue struct {
	cfg    Config
	region *memdev.Region
	lay    layout
	prof   AccessProfile
	index  int // position within the accelerator's queue group

	rxTail uint64
	txHead uint64

	// rxGate fires when anything lands in the RX ring; txFreeGate fires
	// when the SNIC publishes TX consumption. They let the simulator block
	// the polling loops instead of executing every poll iteration; the
	// modelled polling latency is re-added on wake-up.
	rxGate     *sim.Gate
	txFreeGate *sim.Gate

	rx []byte // receive buffer: the last received payload (see Msg)

	// rxOp and txOp carry the queue's receive and send in flight; their
	// continuations are bound once, at attach.
	rxOp recvOp
	txOp sendOp

	received, sent, errs uint64
}

// init watches the queue's rings and binds its operation frames.
func (aq *AccelQueue) init() {
	aq.rxGate = aq.region.Watch(aq.lay.rxSlot(aq.cfg, 0), aq.cfg.Slots*aq.cfg.SlotSize)
	aq.txFreeGate = aq.region.Watch(aq.lay.hdr+hdrTxConsumed, 8)
	aq.rxOp.bind(aq)
	aq.txOp.bind(aq)
}

// Attach creates the accelerator-side view of a standalone mqueue at base.
func Attach(region *memdev.Region, base int, cfg Config, prof AccessProfile) (*AccelQueue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if base+cfg.Footprint() > region.Size() {
		return nil, fmt.Errorf("mqueue: footprint exceeds region")
	}
	aq := &AccelQueue{cfg: cfg, region: region, prof: prof,
		lay: layout{hdr: base, ring: base + QueueHeaderBytes}}
	aq.init()
	return aq, nil
}

// AttachGroup creates the accelerator-side views of a queue group laid out
// by NewGroup.
func AttachGroup(region *memdev.Region, base int, cfg Config, n int, prof AccessProfile) ([]*AccelQueue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if base+GroupFootprint(cfg, n) > region.Size() {
		return nil, fmt.Errorf("mqueue: group footprint exceeds region")
	}
	ringBase := base + n*QueueHeaderBytes
	out := make([]*AccelQueue, n)
	for i := range out {
		out[i] = &AccelQueue{cfg: cfg, region: region, prof: prof, index: i,
			lay: layout{hdr: base + i*QueueHeaderBytes, ring: ringBase + i*cfg.RingBytes()}}
		out[i].init()
	}
	return out, nil
}

// Msg is one received message. Payload is lent from the queue's receive
// buffer: it stays valid until the next receive on the same AccelQueue, so a
// consumer that keeps a message longer must copy it. A send copies its
// payload into the TX ring, so echoing Payload back is safe.
type Msg struct {
	Payload []byte
	Err     byte // non-zero: SNIC-reported connection error (§5.1 metadata)
	Slot    int  // RX slot index, echoed as Corr when responding
}

// stallFor reports how long the fault plan freezes the accessing
// accelerator context from now: the rest of any stall window covering now,
// the simulated equivalent of a hung threadblock or VCA node. Zero without a
// plan.
func (aq *AccelQueue) stallFor(t *sim.Task) time.Duration {
	return aq.prof.Faults.StallRemaining(aq.prof.Accel, aq.index, t.Now())
}

// RecvT receives the next message for task t: k runs with it once it is
// consumed, never inline. Semantically the accelerator polls its doorbell at
// PollInterval; the simulation parks on the RX ring's write gate and re-adds
// half a polling interval of detection latency on wake-up. Each poll charges
// one local access; a message present costs two more (payload read, then
// doorbell clear and consumed-counter update). The payload lands in the
// queue's receive buffer (see Msg). One receive may be in flight per queue:
// it travels in the queue's receive frame (see recvOp), so it allocates
// nothing.
func (aq *AccelQueue) RecvT(t *sim.Task, k func(Msg)) {
	o := &aq.rxOp
	if o.k != nil {
		panic("mqueue: two receives in flight on one AccelQueue")
	}
	o.t, o.k = t, k
	o.poll()
}

// Recv is RecvT for coroutine processes: it blocks until a message arrives.
func (aq *AccelQueue) Recv(p *sim.Proc) Msg {
	p.Await(aq.rxOp.await)
	return aq.rxOp.msg
}

// SendT writes one message into the TX ring for task t; k runs with nil once
// it is published, never inline, or inline with an error when the payload
// exceeds a slot. While the ring is full the accelerator polls the
// SNIC-written consumed counter; the simulation parks on that counter's
// write gate and re-adds half a polling interval on wake-up. corr names the
// RX slot being answered on server queues; pass 0 on client queues.
// errStatus is the slot's error-status byte. The payload is copied into the
// ring only when the slot is written, so it must not change before k runs.
// One send may be in flight per queue: it travels in the queue's send frame
// (see sendOp), so it allocates nothing.
func (aq *AccelQueue) SendT(t *sim.Task, corr uint16, payload []byte, errStatus byte, k func(error)) {
	o := &aq.txOp
	o.corr, o.payload, o.errStatus = corr, payload, errStatus
	o.start(t, k)
}

// Send is SendT for coroutine processes, with a zero error status: it
// blocks while the ring is full.
func (aq *AccelQueue) Send(p *sim.Proc, corr uint16, payload []byte) error {
	return aq.SendErr(p, corr, payload, 0)
}

// SendErr is Send with an explicit error-status byte.
func (aq *AccelQueue) SendErr(p *sim.Proc, corr uint16, payload []byte, errStatus byte) error {
	o := &aq.txOp
	o.corr, o.payload, o.errStatus = corr, payload, errStatus
	p.Await(o.await)
	return o.err
}

// Stats reports received/sent message counts and error-flagged receives.
func (aq *AccelQueue) Stats() (received, sent, errs uint64) {
	return aq.received, aq.sent, aq.errs
}
