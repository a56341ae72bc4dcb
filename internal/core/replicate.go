// SNIC-driven replication (ROADMAP item 1, after "Reliable Replication
// Protocols on SmartNICs"): the dispatcher classifies each accepted request,
// and for writes it drives a quorum protocol entirely from the SNIC — the
// replication records travel over one-sided RDMA into ingest mqueues that
// live in *peer* accelerator memory, peer apply kernels acknowledge through
// the same rings, and the client response is held on the primary until the
// quorum is met. No host CPU on either side touches the path.
//
// Failure handling rides the PR 1 fault plane and the existing MQ-manager
// watchdog: a peer whose ingest ring stops making progress while holding
// in-flight records past MQWatchdogTimeout is declared dead, its pending
// acknowledgements are waived, and every response blocked only on it is
// released. Peers declared dead stay dead (no resync protocol yet — that is
// the next ROADMAP step); writes accepted after the verdict simply replicate
// to the surviving peers.
//
// The hooks into the dispatch/forward hot paths are synchronous bookkeeping
// gated on `svc.repl != nil`, so a runtime without replication executes the
// exact event sequence it executed before this layer existed — replication
// factor 1 stays byte-identical to the single-server build (the metamorphic
// golden test in internal/experiments pins this).
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
	// reached them). FIFO per peer.
	outbox [][]byte
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

// pendingWrite tracks one replicated write from dispatch to release.
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
	releasable []heldResp
	held       uint64 // parked responses, for the conservation finisher

	// gate wakes the delivery pump (outbox flush + response release).
	gate *sim.Gate

	stats ReplStats
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
	r.pend[id] = &pendingWrite{id: id, waitMask: mask, needed: needed, dispatchAt: now, lastAck: now}
	// Copy the payload: the record outlives the caller's buffer.
	rec := append([]byte(nil), payload...)
	for _, rp := range r.peers {
		if mask&(1<<uint(rp.idx)) != 0 {
			rp.outbox = append(rp.outbox, rec)
		}
	}
	r.gate.Fire()
}

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
		return false
	}
	pw.resps = append(pw.resps, heldResp{to: to, payload: payload, parkedAt: r.rt.plat.Sim.Now()})
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
		if pw.needed <= 0 {
			// This peer's ack completed the quorum: it is the straggler
			// every held response was waiting on. The margin is how far it
			// trailed the previous ack (or dispatch, for a quorum of one).
			rp.gated++
			rp.gatingMargin.RecordN(now.Sub(pw.lastAck), 1)
			r.settle(now, pw)
		}
		pw.lastAck = now
	}
	// Every ack frees an ingest slot: wake the pump for backlogged records
	// (and any response the ack just released).
	r.gate.Fire()
}

// settle moves a quorum-met write's parked responses to the release queue,
// stamping the quorum stage and booking the park-to-release interval as the
// span's replication-phase queue wait. With no response parked yet, the pend
// entry stays: onResponse observes needed <= 0 and forwards inline — the
// write's replication overlapped its service and never gated the response,
// so it carries no quorum stamp and a zero replication phase.
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
	r.releasable = append(r.releasable, pw.resps...)
	pw.resps = nil
	delete(r.pend, pw.id)
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
	rp.outbox = nil // undeliverable
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

// pump is the replicator's delivery process ("lynx/repl-pump"), spawned by
// Start: it flushes peer outboxes into ingest rings and completes the
// forward of released responses. One pass per gate version; when a pass
// makes no progress and nothing fired meanwhile, it blocks — bounded by the
// ack deadline while any live peer owes acknowledgements, since a fully
// frozen peer produces no TX activity to wake the MQ manager (whose watchdog
// is the other failover trigger) and would otherwise park responses forever.
func (r *Replicator) pump(p *sim.Proc) {
	rt := r.rt
	wd := rt.plat.Params.MQWatchdogTimeout
	for {
		v := r.gate.Version()
		progressed := false
		for _, rp := range r.peers {
			for len(rp.outbox) > 0 && !rp.dead {
				rec := rp.outbox[0]
				rt.execParallel(p, rt.plat.Params.ForwardCost)
				if _, err := rp.q.Push(p, rec, 0); err != nil {
					// Ingest ring full: the peer is backlogged (or
					// stalling). Keep the record queued; the next ack
					// frees a slot and re-fires the gate, and a dead
					// verdict discards the outbox.
					r.stats.Backlogged++
					break
				}
				rp.outbox = rp.outbox[1:]
				if rp.outstanding == 0 {
					rp.since = p.Now()
				}
				rp.outstanding++
				r.stats.Records++
				progressed = true
			}
		}
		for len(r.releasable) > 0 {
			hr := r.releasable[0]
			id := trace.SpanID(hr.payload)
			qw := rt.exec(p, rt.plat.Params.ForwardCost)
			qw += rt.exec(p, r.svc.protoCost())
			r.svc.reply(hr.to, hr.payload)
			rt.stats.Responded++
			r.releasable = r.releasable[1:]
			r.held--
			r.stats.Released++
			rt.plat.Spans.AddWait(id, trace.PhaseSNIC, qw)
			rt.plat.Spans.Stamp(id, trace.StageForward, p.Now())
			rt.plat.Tracer.Emit(p.Now(), trace.Forward, uint64(len(hr.payload)), 0)
			progressed = true
		}
		if progressed {
			continue
		}
		// Ack deadline: a live peer holding delivered-but-unacknowledged
		// records whose progress clock stopped for the watchdog timeout is
		// declared dead here, on the SNIC, without waiting for the MQ
		// manager (its activity gate never fires for a frozen ring).
		if wd > 0 {
			now := p.Now()
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
				continue // flush the responses the verdicts released
			}
			if wait >= 0 {
				r.gate.WaitTimeout(p, v, wait)
				continue
			}
		}
		r.gate.Wait(p, v)
	}
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

// ReplicaAck builds a peer apply kernel's acknowledgement for a record: the
// 8-byte id header. (A body is unnecessary — the primary matches acks to
// writes by id.)
func ReplicaAck(record []byte) []byte {
	ack := make([]byte, 8)
	copy(ack, record)
	return ack
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
