// SNIC-driven replication (an extension beyond the paper, after "Reliable
// Replication Protocols on SmartNICs"): the dispatcher classifies each accepted request,
// and for writes it drives a quorum protocol entirely from the SNIC — the
// replication records travel over one-sided RDMA into ingest mqueues that
// live in *peer* accelerator memory, peer apply kernels acknowledge through
// the same rings, and the client response is held on the primary until the
// quorum is met. No host CPU on either side touches the path.
//
// Failure handling rides the fault plane (internal/fault) and the MQ-manager
// watchdog: a peer whose ingest ring stops making progress while holding
// in-flight records past MQWatchdogTimeout is declared dead, its pending
// acknowledgements are waived, and every response blocked only on it is
// released. Peers declared dead stay dead (there is no resync protocol);
// writes accepted after the verdict simply replicate to the surviving peers.
//
// The hooks into the dispatch/forward hot paths are synchronous bookkeeping
// gated on `svc.repl != nil`, so a runtime without replication — any single
// server, and every node of a rack at replication factor 1 — pays nothing
// for this layer and schedules no event of it.
package core

import (
	"fmt"
	"math/bits"
	"time"

	"lynx/internal/accel"
	"lynx/internal/metrics"
	"lynx/internal/mqueue"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// ReplConfig parameterizes a service's replication layer.
type ReplConfig struct {
	// Classify inspects a request payload (including its 8-byte LE id
	// header, the workload sequence convention) and returns the write's id,
	// the mask of peer slots (bit i = AddPeer call i) that must apply it,
	// and whether the request mutates state at all. Reads return write=false
	// and bypass the protocol entirely.
	Classify func(payload []byte) (id uint64, peers uint32, write bool)
	// Quorum is the number of peer acknowledgements required before the
	// client response is released. 0 means all live peers in the mask.
	Quorum int
}

// ReplStats is the replication layer's counter snapshot.
type ReplStats struct {
	// Writes counts replicated writes tracked by the protocol.
	Writes uint64
	// Records counts replication records delivered into peer ingest rings.
	Records uint64
	// Backlogged counts deliveries deferred because a peer ingest ring was
	// full (the record stays queued and retries on the next ack).
	Backlogged uint64
	// Acks counts peer acknowledgements drained from ingest TX rings.
	Acks uint64
	// Held counts client responses parked waiting for peer acks.
	Held uint64
	// Released counts parked responses sent after their quorum was met or
	// waived by a failover verdict.
	Released uint64
	// PeerFailovers counts peers the watchdog declared dead.
	PeerFailovers uint64
}

// String formats the snapshot on one line with a stable field order.
func (s ReplStats) String() string {
	return fmt.Sprintf("writes=%d records=%d backlogged=%d acks=%d held=%d released=%d peer_failovers=%d",
		s.Writes, s.Records, s.Backlogged, s.Acks, s.Held, s.Released, s.PeerFailovers)
}

// replPeer is one replication target: an ingest mqueue group allocated in
// the peer accelerator's memory, written by this runtime's RDMA engine.
type replPeer struct {
	r    *Replicator
	idx  int
	name string
	h    *AccelHandle
	q    *mqueue.Queue
	// outbox holds replication records accepted by the dispatcher but not
	// yet delivered (the ingest ring was full, or the delivery pump has not
	// reached them). FIFO per peer; each record is a pooled buffer of its
	// own.
	outbox queue[[]byte]
	dead   bool
	deadAt sim.Time
	// outstanding counts records delivered into the ingest ring but not yet
	// acknowledged; since is when that count last shrank (or first became
	// non-zero) — the SNIC-local progress clock for the pump's ack deadline.
	outstanding int
	since       sim.Time
	// Straggler attribution: ackLat is the dispatch-to-ack latency of this
	// peer's acks, gated counts quorums this peer's ack completed (the ack
	// that released held responses), and gatingMargin is how long quorum
	// waited on it beyond the previous ack for the same write.
	ackLat       *metrics.Histogram
	gated        uint64
	gatingMargin *metrics.Histogram
}

// heldResp is one client response parked until its write's quorum is met.
type heldResp struct {
	to      replyTo
	payload []byte
	// parkedAt is when the response was parked; the park-to-release interval
	// is the span's replication-phase queue wait.
	parkedAt sim.Time
}

// pendingWrite tracks one replicated write from dispatch to release. Records
// recycle through the replicator's free list once they leave pend.
type pendingWrite struct {
	id       uint64
	waitMask uint32 // peers whose ack is still outstanding
	needed   int    // acks still required before release
	resps    []heldResp
	// dispatchAt is when the write entered the protocol; lastAck advances
	// with every matching ack — the gating margin of the quorum-completing
	// ack is measured from it.
	dispatchAt sim.Time
	lastAck    sim.Time
}

// Replicator drives the quorum protocol for one service.
type Replicator struct {
	rt  *Runtime
	svc *Service
	cfg ReplConfig

	peers    []*replPeer
	liveMask uint32

	pend       map[uint64]*pendingWrite
	releasable queue[heldResp]
	held       uint64 // parked responses, for the conservation finisher

	// Free lists. A pendingWrite returns when it leaves pend. A buffer
	// holds a replication record until its push into a peer ring completes
	// (or the peer is declared dead), or a parked response until the pump
	// has sent and booked it.
	freeWrites []*pendingWrite
	bufs       [][]byte

	// gate wakes the delivery pump (outbox flush + response release).
	gate *sim.Gate

	stats ReplStats

	// The pump task's frame (see pump): the pass's gate version and
	// progress, the peer being flushed and its record in flight, and the
	// response being released with its queueing wait so far.
	t                        *sim.Task
	v                        uint64
	progressed               bool
	pi                       int
	rec                      []byte
	hr                       heldResp
	qw                       time.Duration
	passK                    func()
	chargedK, servedK, sentK func(time.Duration)
	pushedK                  func(slot int, err error)
	wokeK                    func(fired bool)
}

// AddReplication attaches a replication layer to the service. Configure
// peers with AddPeer before Start.
func (rt *Runtime) AddReplication(svc *Service, cfg ReplConfig) (*Replicator, error) {
	if rt.started {
		return nil, fmt.Errorf("core: cannot add replication after Start")
	}
	if svc == nil || svc.rt != rt {
		return nil, fmt.Errorf("core: replication target service is not on this runtime")
	}
	if svc.repl != nil {
		return nil, fmt.Errorf("core: service on port %d already replicated", svc.port)
	}
	if cfg.Classify == nil {
		return nil, fmt.Errorf("core: replication needs a Classify function")
	}
	r := &Replicator{
		rt: rt, svc: svc, cfg: cfg,
		pend: make(map[uint64]*pendingWrite),
		gate: sim.NewGate(rt.plat.Sim),
	}
	svc.repl = r
	rt.replicators = append(rt.replicators, r)
	return r, nil
}

// AddPeer allocates a single-queue ingest mqueue group in the peer
// accelerator's memory (named after this runtime's host, so several
// primaries can replicate into one accelerator) and returns its handle. The
// caller wires the handle's AccelQueues into the peer's apply kernel: each
// record carries the original request payload; the kernel applies it and
// answers with an acknowledgement repeating the 8-byte id header.
func (r *Replicator) AddPeer(name string, acc accel.Accelerator, qcfg mqueue.Config) (*AccelHandle, error) {
	rt := r.rt
	if rt.started {
		return nil, fmt.Errorf("core: cannot add replication peers after Start")
	}
	if len(r.peers) >= 32 {
		return nil, fmt.Errorf("core: replication peer mask is 32 bits wide")
	}
	region := fmt.Sprintf("lynx-repl-%s-%d", rt.plat.NetHost.Name(), len(r.peers))
	// Ingest queues carry copies of in-flight requests, not the requests
	// themselves: keep them out of the span table (spans=false) so the
	// peer-side apply kernel cannot stamp the primary's serving stages.
	// They do mark themselves as replication rings: each record delivery
	// stamps StageReplPushed into the *origin's* table, linking the replica
	// push to the origin span through the shared wire-seq id.
	qcfg.ReplSpans = rt.plat.Spans
	h, err := rt.register(acc, qcfg, 1, region, true, false)
	if err != nil {
		return nil, fmt.Errorf("core: registering ingest queue on %s: %w", acc.Name(), err)
	}
	rp := &replPeer{
		r: r, idx: len(r.peers), name: name, h: h, q: h.group.Queue(0),
		ackLat: metrics.NewHistogram(), gatingMargin: metrics.NewHistogram(),
	}
	r.peers = append(r.peers, rp)
	r.liveMask |= 1 << uint(rp.idx)
	return h, nil
}

// PeerCount returns the number of configured peers.
func (r *Replicator) PeerCount() int { return len(r.peers) }

// PeerName returns the name given to AddPeer.
func (r *Replicator) PeerName(i int) string { return r.peers[i].name }

// PeerDead reports whether the watchdog declared peer i dead.
func (r *Replicator) PeerDead(i int) bool { return r.peers[i].dead }

// PeerDeadAt returns the virtual time of peer i's failover verdict.
func (r *Replicator) PeerDeadAt(i int) (sim.Time, bool) {
	return r.peers[i].deadAt, r.peers[i].dead
}

// Stats returns the replication counter snapshot.
func (r *Replicator) Stats() ReplStats { return r.stats }

// ReplPeerStat is one peer's straggler profile: how its acks arrive and how
// often (and by how much) its ack was the one quorum waited for.
type ReplPeerStat struct {
	// Name is the peer name given to AddPeer.
	Name string
	// Acks counts acknowledgements drained from this peer.
	Acks uint64
	// GatedQuorums counts writes whose quorum this peer's ack completed —
	// the straggler count: this peer's ack was what held responses waited on.
	GatedQuorums uint64
	// AckLatency is the dispatch-to-ack latency distribution of this peer.
	AckLatency *metrics.Histogram
	// GatingMargin, over gated quorums only, is how long the quorum waited
	// on this peer beyond the previous ack for the same write.
	GatingMargin *metrics.Histogram
}

// PeerStat returns peer i's straggler profile. The histograms are live; the
// caller must not mutate them.
func (r *Replicator) PeerStat(i int) ReplPeerStat {
	rp := r.peers[i]
	var acks uint64
	if h := rp.ackLat; h != nil {
		acks = h.Count()
	}
	return ReplPeerStat{
		Name: rp.name, Acks: acks, GatedQuorums: rp.gated,
		AckLatency: rp.ackLat, GatingMargin: rp.gatingMargin,
	}
}

// HeldResponses returns the number of currently parked client responses.
func (r *Replicator) HeldResponses() uint64 { return r.held }

// onDispatch runs after a request was accepted into a primary mqueue. Pure
// bookkeeping — the record deliveries happen on the pump process — so the
// dispatch paths of both substrates stay operation-identical.
func (r *Replicator) onDispatch(payload []byte) {
	id, mask, write := r.cfg.Classify(payload)
	if !write {
		return
	}
	r.stats.Writes++
	mask &= r.liveMask
	if mask == 0 {
		return
	}
	if _, dup := r.pend[id]; dup {
		// Client retransmit of a tracked write: the records are already
		// owed to the same peers and the original acks settle it.
		return
	}
	needed := bits.OnesCount32(mask)
	if q := r.cfg.Quorum; q > 0 && q < needed {
		needed = q
	}
	now := r.rt.plat.Sim.Now()
	pw := r.newWrite()
	pw.id, pw.waitMask, pw.needed, pw.dispatchAt, pw.lastAck = id, mask, needed, now, now
	r.pend[id] = pw
	// Copy the payload, once per peer: each record outlives the caller's
	// buffer and returns to the pool when its own push completes.
	for _, rp := range r.peers {
		if mask&(1<<uint(rp.idx)) != 0 {
			rp.outbox.push(r.copyBuf(payload))
		}
	}
	r.gate.Fire()
}

// newWrite takes a pendingWrite from the free list, or makes one.
func (r *Replicator) newWrite() *pendingWrite {
	n := len(r.freeWrites)
	if n == 0 {
		return &pendingWrite{}
	}
	pw := r.freeWrites[n-1]
	r.freeWrites = r.freeWrites[:n-1]
	return pw
}

// freeWrite returns a pendingWrite that left pend to the free list, keeping
// its (empty) resps array.
func (r *Replicator) freeWrite(pw *pendingWrite) {
	clear(pw.resps)
	*pw = pendingWrite{resps: pw.resps[:0]}
	r.freeWrites = append(r.freeWrites, pw)
}

// copyBuf returns a pooled copy of b.
func (r *Replicator) copyBuf(b []byte) []byte {
	var buf []byte
	if n := len(r.bufs); n > 0 {
		buf = r.bufs[n-1]
		r.bufs[n-1] = nil
		r.bufs = r.bufs[:n-1]
	}
	return append(buf, b...)
}

// freeBuf returns a buffer from copyBuf to the pool.
func (r *Replicator) freeBuf(b []byte) { r.bufs = append(r.bufs, b[:0]) }

// onResponse runs when the accelerator's response for a request is about to
// be forwarded, after its reply FIFO pop. It returns true when the response
// must be parked for outstanding peer acks — the caller then skips the send
// and the Responded count; the pump finishes the forward on release.
func (r *Replicator) onResponse(to replyTo, payload []byte) bool {
	pw := r.pend[trace.SpanID(payload)]
	if pw == nil {
		return false
	}
	if pw.needed <= 0 {
		delete(r.pend, pw.id)
		r.freeWrite(pw)
		return false
	}
	// The parked response outlives the drained payload: keep a copy.
	pw.resps = append(pw.resps, heldResp{to: to, payload: r.copyBuf(payload), parkedAt: r.rt.plat.Sim.Now()})
	r.held++
	r.stats.Held++
	return true
}

// onAck runs from the MQ-manager sweep for every message drained from a peer
// ingest TX ring: the peer's apply kernel acknowledged one record.
func (r *Replicator) onAck(rp *replPeer, payload []byte) {
	now := r.rt.plat.Sim.Now()
	r.stats.Acks++
	if rp.outstanding > 0 {
		rp.outstanding--
		rp.since = now
	}
	id := trace.SpanID(payload)
	pw := r.pend[id]
	bit := uint32(1) << uint(rp.idx)
	if pw != nil && pw.waitMask&bit != 0 {
		rp.ackLat.RecordN(now.Sub(pw.dispatchAt), 1)
		r.rt.plat.Spans.Stamp(id, trace.StageReplAcked, now)
		pw.waitMask &^= bit
		pw.needed--
		// The margin is how far this ack trailed the previous one (or
		// dispatch, for the first).
		margin := now.Sub(pw.lastAck)
		pw.lastAck = now
		if pw.needed <= 0 {
			// This peer's ack completed the quorum: it is the straggler
			// every held response was waiting on.
			rp.gated++
			rp.gatingMargin.RecordN(margin, 1)
			r.settle(now, pw) // may recycle pw
		}
	}
	// Every ack frees an ingest slot: wake the pump for backlogged records
	// (and any response the ack just released).
	r.gate.Fire()
}

// settle moves a quorum-met write's parked responses to the release queue,
// stamping the quorum stage and booking the park-to-release interval as the
// span's replication-phase queue wait, and recycles the write. With no
// response parked yet, the pend entry stays: onResponse observes needed <= 0
// and forwards inline — the write's replication overlapped its service and
// never gated the response, so it carries no quorum stamp and a zero
// replication phase.
func (r *Replicator) settle(now sim.Time, pw *pendingWrite) {
	if len(pw.resps) == 0 {
		return
	}
	sp := r.rt.plat.Spans
	sp.Stamp(pw.id, trace.StageQuorum, now)
	for _, hr := range pw.resps {
		sp.AddWait(pw.id, trace.PhaseReplication, now.Sub(hr.parkedAt))
	}
	r.rt.plat.Tracer.Emit(now, trace.ReplRelease,
		uint64(len(pw.resps)), uint64(bits.OnesCount32(pw.waitMask)))
	for _, hr := range pw.resps {
		r.releasable.push(hr)
	}
	delete(r.pend, pw.id)
	r.freeWrite(pw)
}

// killPeer executes the watchdog's failover verdict: the peer is dead, its
// outstanding acknowledgements are waived, and every response blocked only
// on it is released. Pending writes are visited in id order so the release
// sequence is deterministic.
func (r *Replicator) killPeer(now sim.Time, rp *replPeer) {
	if rp.dead {
		return
	}
	rp.dead = true
	rp.deadAt = now
	// The outbox is undeliverable: its records go back to the pool, except
	// the oldest while the pump has it in flight, which pushed recycles.
	recs := rp.outbox.items()
	if r.rec != nil && r.peers[r.pi] == rp {
		recs = recs[1:]
	}
	for _, rec := range recs {
		r.freeBuf(rec)
	}
	rp.outbox.reset()
	rp.outstanding = 0
	r.liveMask &^= 1 << uint(rp.idx)
	r.stats.PeerFailovers++
	bit := uint32(1) << uint(rp.idx)
	ids := make([]uint64, 0, len(r.pend))
	for id, pw := range r.pend {
		if pw.waitMask&bit != 0 {
			ids = append(ids, id)
		}
	}
	sortUint64s(ids)
	r.rt.plat.Tracer.Emit(now, trace.PeerKill, uint64(rp.idx), uint64(len(ids)))
	r.rt.plat.Tracer.Emit(now, trace.QuorumShrink,
		uint64(bits.OnesCount32(r.liveMask)), uint64(r.cfg.Quorum))
	for _, id := range ids {
		pw := r.pend[id]
		pw.waitMask &^= bit
		if live := bits.OnesCount32(pw.waitMask); pw.needed > live {
			pw.needed = live
		}
		if pw.needed <= 0 {
			r.settle(now, pw)
		}
	}
	r.gate.Fire()
}

// pump is the body of the replicator's delivery task ("lynx/repl-pump"),
// spawned by Start: it flushes peer outboxes into ingest rings and completes
// the forward of released responses. One pass per gate version; when a pass
// makes no progress and nothing fired meanwhile, it parks — bounded by the
// ack deadline while any live peer owes acknowledgements, since a fully
// frozen peer produces no TX activity to wake the MQ manager (whose watchdog
// is the other failover trigger) and would otherwise park responses forever.
func (r *Replicator) pump(t *sim.Task) {
	r.t = t
	r.passK, r.chargedK, r.servedK, r.sentK = r.pass, r.charged, r.served, r.sent
	r.pushedK, r.wokeK = r.pushed, func(bool) { r.pass() }
	r.pass()
}

// pass starts a pass at the gate's current version.
func (r *Replicator) pass() {
	r.v = r.gate.Version()
	r.progressed = false
	r.pi = 0
	r.flush()
}

// flush delivers the next outbox record of the peer being flushed, moving
// on to the next peer once its outbox is empty; past the last peer, the
// pass releases responses.
func (r *Replicator) flush() {
	for ; r.pi < len(r.peers); r.pi++ {
		if rp := r.peers[r.pi]; rp.outbox.len() > 0 && !rp.dead {
			r.rec = rp.outbox.front()
			r.rt.execParallelT(r.t, r.rt.plat.Params.ForwardCost, r.chargedK)
			return
		}
	}
	r.release()
}

func (r *Replicator) charged(time.Duration) {
	r.peers[r.pi].q.PushT(r.t, r.rec, 0, r.pushedK)
}

func (r *Replicator) pushed(_ int, err error) {
	rp, rec := r.peers[r.pi], r.rec
	r.rec = nil
	if rp.dead {
		// Declared dead while the record was in flight: the verdict
		// emptied the outbox and left this record to recycle here.
		r.freeBuf(rec)
	}
	if err != nil {
		// Ingest ring full: the peer is backlogged (or stalling). Keep the
		// record queued; the next ack frees a slot and re-fires the gate,
		// and a dead verdict discards the outbox.
		r.stats.Backlogged++
		r.pi++
		r.flush()
		return
	}
	if !rp.dead {
		// The push copied the record into the ring: its buffer is free.
		rp.outbox.pop()
		r.freeBuf(rec)
	}
	if rp.outstanding == 0 {
		rp.since = r.t.Now()
	}
	rp.outstanding++
	r.stats.Records++
	r.progressed = true
	r.flush()
}

// release forwards the oldest released response, or ends the pass.
func (r *Replicator) release() {
	if r.releasable.len() == 0 {
		r.passed()
		return
	}
	r.hr = r.releasable.front()
	r.rt.execT(r.t, r.rt.plat.Params.ForwardCost, r.servedK)
}

func (r *Replicator) served(qw time.Duration) {
	r.qw = qw
	r.rt.execT(r.t, r.rt.stackCost(r.svc.proto), r.sentK)
}

func (r *Replicator) sent(qw time.Duration) {
	hr := r.hr
	hr.to.send(r.svc.udpSock, hr.payload)
	r.releasable.pop()
	r.held--
	r.stats.Released++
	r.rt.responded(r.t.Now(), hr.payload, r.qw+qw)
	r.freeBuf(hr.payload)
	r.hr = heldResp{}
	r.progressed = true
	r.release()
}

// passed ends a pass: a pass that made progress starts the next at once.
// Otherwise a live peer holding delivered-but-unacknowledged records whose
// progress clock stopped for the watchdog timeout is declared dead here, on
// the SNIC, without waiting for the MQ manager (its activity gate never
// fires for a frozen ring); failing that, the pump parks until the gate
// fires or the earliest ack deadline.
func (r *Replicator) passed() {
	if r.progressed {
		r.pass()
		return
	}
	if wd := r.rt.plat.Params.MQWatchdogTimeout; wd > 0 {
		now := r.t.Now()
		killed := false
		wait := time.Duration(-1)
		for _, rp := range r.peers {
			if rp.dead || rp.outstanding == 0 {
				continue
			}
			left := rp.since.Add(wd).Sub(now)
			if left <= 0 {
				r.killPeer(now, rp)
				killed = true
			} else if wait < 0 || left < wait {
				wait = left
			}
		}
		if killed {
			r.pass() // flush the responses the verdicts released
			return
		}
		if wait >= 0 {
			if inline, _ := r.gate.WaitTimeoutT(r.t, r.v, wait, r.wokeK); inline {
				r.pass()
			}
			return
		}
	}
	if r.gate.WaitT(r.t, r.v, r.passK) {
		r.pass()
	}
}

// queue is a FIFO that reuses its backing array: popping advances a head
// index instead of re-slicing from the front, and the array rewinds whenever
// the queue drains (or compacts once mostly popped), so steady-state churn
// never reallocates.
type queue[T any] struct {
	q    []T
	head int
}

func (x *queue[T]) len() int   { return len(x.q) - x.head }
func (x *queue[T]) front() T   { return x.q[x.head] }
func (x *queue[T]) items() []T { return x.q[x.head:] }
func (x *queue[T]) push(v T)   { x.q = append(x.q, v) }

func (x *queue[T]) pop() {
	var zero T
	x.q[x.head] = zero
	x.head++
	if x.head == len(x.q) {
		x.reset()
	} else if x.head > 32 && x.head*2 >= len(x.q) {
		n := copy(x.q, x.q[x.head:])
		clear(x.q[n:])
		x.q, x.head = x.q[:n], 0
	}
}

// reset empties the queue, keeping its array.
func (x *queue[T]) reset() {
	clear(x.q)
	x.q, x.head = x.q[:0], 0
}

// sortUint64s is an insertion sort: the pending-write set at a failover
// verdict is small (bounded by the in-flight window).
func sortUint64s(xs []uint64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ReplicaAck returns a peer apply kernel's acknowledgement for a record: its
// 8-byte id header, as a view of the record, which must be at least that
// long. (A body is unnecessary — the primary matches acks to writes by id.)
// It allocates nothing: Send copies the ack into the TX ring.
func ReplicaAck(record []byte) []byte {
	return record[:8:8]
}

// ---------------------------------------------------------------------------
// Time-sliced helpers used by the cluster experiments

// ReplicationLag is a convenience for experiments: the failover latency of
// peer i relative to a fault injected at `at`, or 0 when the peer is alive.
func (r *Replicator) ReplicationLag(i int, at time.Duration) time.Duration {
	rp := r.peers[i]
	if !rp.dead {
		return 0
	}
	return time.Duration(rp.deadAt) - at
}
