// Package rdma models the one-sided RDMA machinery Lynx relies on: an RDMA
// engine embedded in a NIC, queue pairs (reliable RC and unreliable UC),
// work requests, and their completions.
//
// Lynx uses one-sided RDMA READ/WRITE from the SmartNIC into accelerator
// memory for all mqueue management (§4.2 "Remote Message Queue Manager"),
// both for accelerators on the local PCIe fabric and for accelerators behind
// a remote host's RDMA NIC (§5.5) — the latter differ only by an extra
// network penalty, which is precisely what makes Lynx location-transparent.
package rdma

import (
	"fmt"
	"time"

	"lynx/internal/fabric"
	"lynx/internal/fault"
	"lynx/internal/memdev"
	"lynx/internal/model"
	"lynx/internal/sim"
)

// QPKind selects the transport of a queue pair.
type QPKind int

const (
	// RC is a Reliable Connection: ordered, acknowledged, no drops.
	RC QPKind = iota
	// UC is an Unreliable Connection: ordered but unacknowledged; the
	// receive side must provision credits (receive WQEs) or writes with
	// immediate are dropped. NICA's custom rings use UC (§5.2).
	UC
)

// String names the QP kind.
func (k QPKind) String() string {
	if k == UC {
		return "UC"
	}
	return "RC"
}

// OpCode identifies a work request type.
type OpCode int

const (
	// OpWrite is a one-sided RDMA WRITE.
	OpWrite OpCode = iota
	// OpRead is a one-sided RDMA READ.
	OpRead
	// OpBarrier is a zero-length ordered READ used as a write barrier
	// (§5.1 consistency workaround).
	OpBarrier
)

// WR is a work request posted to a QP's send queue.
type WR struct {
	Op     OpCode
	Region *memdev.Region
	Offset int
	// Data is the OpWrite payload, or the OpRead destination: a READ fills
	// all of it. The engine reads or fills it at the WR's wire instant, so
	// the poster must leave it untouched until the completion.
	Data []byte
	ID   uint64 // user cookie echoed in the completion

	// OnDeliver, when set on an OpWrite, is invoked at the simulated instant
	// the data lands in the target region — before the completion travels
	// back to the poster. Span instrumentation stamps queue-entry times here
	// so a consumer polling the written memory can never observe the message
	// before its stamp. Never called for dropped UC writes.
	OnDeliver func(at sim.Time)

	// reply, when set by the waiting operations, receives this WR's CQE
	// directly so concurrent posters never steal each other's completions.
	// A WR without one is unsignaled: it completes, but surfaces no CQE.
	reply *sim.Chan[CQE]
}

// CQE is a completion queue entry.
type CQE struct {
	ID      uint64
	Op      OpCode
	Data    []byte // OpRead result: the WR's destination buffer
	Dropped bool   // UC write discarded for lack of receive credits
	Retried bool   // completed only after a transport-level retry (fault plan)
	At      sim.Time
}

// Engine is the RDMA engine of one NIC. Work requests from all QPs share the
// engine's hardware pipeline (a unit resource), reproducing the serialization
// that makes "one RC QP per accelerator" (§5.1) a sensible design point.
type Engine struct {
	sim    *sim.Sim
	params *model.Params
	fab    *fabric.Fabric
	nic    *fabric.Device
	pipe   *sim.Resource
	faults *fault.Plan

	ops     uint64
	retried uint64
}

// NewEngine creates the RDMA engine for the NIC device on fab.
func NewEngine(s *sim.Sim, p *model.Params, fab *fabric.Fabric, nic *fabric.Device) *Engine {
	return &Engine{sim: s, params: p, fab: fab, nic: nic, pipe: sim.NewResource(s, 1)}
}

// SetFaults installs a fault plan consulted per work request. A nil plan
// (the default) injects nothing.
func (e *Engine) SetFaults(pl *fault.Plan) { e.faults = pl }

// Ops reports the number of work requests executed.
func (e *Engine) Ops() uint64 { return e.ops }

// Retried reports work requests that completed only after a transport-level
// retry injected by the fault plan.
func (e *Engine) Retried() uint64 { return e.retried }

// QP is a queue pair whose remote end is a window into target-device memory.
type QP struct {
	engine *Engine
	kind   QPKind
	target *fabric.Device
	// remote is non-zero when the target sits behind another host's NIC;
	// it is added to every operation's transit (each way), modelling the
	// extra InfiniBand network hop (§6.3 measures ~8 µs round trip).
	remote time.Duration

	hw       bool
	sq       *sim.Chan[WR] // unbounded: posting never parks
	cur      WR            // WR between dequeue and engine stage of the run task
	inflight []*inflightWR
	inflHead int

	// flFree and calls recycle inflight nodes and task-form call frames so
	// the per-operation hot path allocates nothing once warm. Recycling
	// changes no scheduling decision — only where the bookkeeping structs
	// live.
	flFree []*inflightWR
	calls  []*call

	credits  int // UC receive credits
	dropped  uint64
	posted   uint64
	complete uint64
}

// QPConfig parameterizes CreateQP.
type QPConfig struct {
	Kind QPKind
	// Remote marks the target as reachable only across the network.
	Remote bool
	// HWIssue marks the QP as driven by NIC-resident hardware (the Innova
	// AFU): posting costs no CPU time, and writes are fully pipelined
	// (posted semantics — the engine only pays its per-WQE processing time;
	// wire transit overlaps).
	HWIssue bool
}

// CreateQP connects a queue pair from the engine's NIC to the target device.
// The returned QP processes work requests in order on a dedicated engine
// context and completes them in posting order.
func (e *Engine) CreateQP(target *fabric.Device, cfg QPConfig) *QP {
	if target.Mem == nil {
		panic(fmt.Sprintf("rdma: target %s has no DMA-visible memory", target.Name()))
	}
	if !target.Mem.BARCapable() {
		panic(fmt.Sprintf("rdma: target %s cannot expose memory on PCIe (no BAR)", target.Name()))
	}
	qp := &QP{
		engine: e,
		kind:   cfg.Kind,
		target: target,
		hw:     cfg.HWIssue,
		sq:     sim.NewChan[WR](e.sim, 0),
	}
	if cfg.Remote {
		qp.remote = e.params.RDMARemotePenalty
	}
	e.sim.SpawnTask("rdma-qp/"+target.Name(), func(t *sim.Task) { qp.run(t) })
	return qp
}

// inflightWR tracks one WR between engine processing and wire completion.
// Nodes are recycled through QP.flFree; onWire is the node's reusable
// wire-completion thunk, bound once and kept across the free list.
type inflightWR struct {
	qp     *QP
	wr     WR
	cqe    CQE
	done   bool
	onWire func()
}

// getInflight takes a tracking node for wr, reusing a free-listed one.
func (qp *QP) getInflight(wr WR) *inflightWR {
	if n := len(qp.flFree); n > 0 {
		fl := qp.flFree[n-1]
		qp.flFree[n-1] = nil
		qp.flFree = qp.flFree[:n-1]
		fl.wr = wr
		fl.cqe = CQE{ID: wr.ID, Op: wr.Op}
		fl.done = false
		return fl
	}
	fl := &inflightWR{qp: qp, wr: wr, cqe: CQE{ID: wr.ID, Op: wr.Op}}
	fl.onWire = fl.wireDone
	return fl
}

// wireDone runs at the simulated instant the WR's wire transfer completes:
// the data movement side effect, then in-order completion delivery.
func (fl *inflightWR) wireDone() {
	switch fl.wr.Op {
	case OpWrite:
		fl.wr.Region.WriteDMA(fl.wr.Offset, fl.wr.Data)
		if fl.wr.OnDeliver != nil {
			fl.wr.OnDeliver(fl.qp.engine.sim.Now())
		}
	case OpRead:
		fl.wr.Region.ReadDMA(fl.wr.Offset, fl.wr.Data)
		fl.cqe.Data = fl.wr.Data
	case OpBarrier:
		fl.wr.Region.Flush()
	}
	fl.qp.finish(fl)
}

// run is the QP's engine context, hosted on the run-to-completion task
// substrate (every RDMA operation in the system crosses this loop, making it
// one of the hottest processes in a run). WQEs are processed in order, each
// holding the engine pipeline only for its per-WQE processing time; wire
// transit overlaps across outstanding WRs (real NICs keep many requests in
// flight). Completions are still delivered strictly in posting order (RC
// semantics). The loop's continuations are bound once per QP, so the
// per-WQE scheduler cost is events only — no goroutine handoffs, no
// per-iteration closures.
func (qp *QP) run(t *sim.Task) {
	e := qp.engine
	var loop, acquired, engineDone func()
	var onWR func(WR)
	onWR = func(wr WR) {
		qp.cur = wr
		if e.pipe.AcquireT(t, acquired) {
			acquired()
		}
	}
	acquired = func() { t.Sleep(e.params.RDMAEngine, engineDone) }
	engineDone = func() {
		e.ops++
		e.pipe.Release()
		qp.process(qp.cur)
		loop()
	}
	loop = func() {
		if wr, ok := qp.sq.GetT(t, onWR); ok {
			onWR(wr)
		}
	}
	loop()
}

// process runs a WQE's post-engine stage: fault perturbation, transfer
// scheduling, and in-order completion delivery.
func (qp *QP) process(wr WR) {
	e := qp.engine
	fl := qp.getInflight(wr)
	qp.inflight = append(qp.inflight, fl)
	// Fault plan: a completion error is retried by the RC transport
	// (go-back-N), surfacing as extra latency and a flagged CQE.
	var perturb time.Duration
	if e.faults.RDMAError() {
		e.retried++
		fl.cqe.Retried = true
		perturb = fault.RDMARetryLatency
	}
	switch wr.Op {
	case OpWrite:
		if qp.kind == UC && qp.credits <= 0 {
			qp.dropped++
			fl.cqe.Dropped = true
			qp.finish(fl)
			return
		}
		if qp.kind == UC {
			qp.credits--
		}
		transit := qp.remote + e.fab.TransferTime(e.nic, qp.target, len(wr.Data)) + perturb
		e.sim.After(transit, fl.onWire)
	case OpRead:
		transit := 2*qp.remote + e.fab.TransferTime(e.nic, qp.target, 32) +
			e.fab.TransferTime(qp.target, e.nic, len(wr.Data)) + perturb
		e.sim.After(transit, fl.onWire)
	case OpBarrier:
		// The barrier read cannot be pipelined behind other traffic;
		// the paper measures ~5 µs for the full workaround (this read
		// plus the uncoalesced doorbell write).
		transit := 2*qp.remote + e.fab.TransferTime(e.nic, qp.target, 32) +
			e.fab.TransferTime(qp.target, e.nic, 8)
		// Aim the barrier's total at RDMAReadBarrier minus the
		// uncoalesced doorbell write it forces (~1.5 µs).
		if pad := e.params.RDMAReadBarrier - 1500*time.Nanosecond - transit - e.params.RDMAIssue - e.params.RDMAEngine; pad > 0 {
			transit += pad
		}
		transit += perturb
		e.sim.After(transit, fl.onWire)
	}
}

// finish marks a WR complete and delivers every leading completed CQE in
// posting order to its WR's reply channel. Unsignaled WRs — including UC
// writes dropped for lack of credits, which QP.Dropped counts — surface
// nothing.
func (qp *QP) finish(fl *inflightWR) {
	fl.done = true
	fl.cqe.At = qp.engine.sim.Now()
	for qp.inflHead < len(qp.inflight) && qp.inflight[qp.inflHead].done {
		head := qp.inflight[qp.inflHead]
		qp.inflight[qp.inflHead] = nil
		qp.inflHead++
		qp.complete++
		if r := head.wr.reply; r != nil {
			r.TryPut(head.cqe)
		}
		// The CQE escaped by value; drop the node's references and recycle.
		head.wr = WR{}
		head.cqe = CQE{}
		qp.flFree = append(qp.flFree, head)
	}
	if qp.inflHead == len(qp.inflight) {
		qp.inflight, qp.inflHead = qp.inflight[:0], 0
	} else if qp.inflHead > 32 && qp.inflHead*2 >= len(qp.inflight) {
		// Queue stays non-empty under continuous load: compact (amortized
		// O(1)) so the backing array stays bounded.
		n := copy(qp.inflight, qp.inflight[qp.inflHead:])
		for i := n; i < len(qp.inflight); i++ {
			qp.inflight[i] = nil
		}
		qp.inflight = qp.inflight[:n]
		qp.inflHead = 0
	}
}

// Post enqueues a work request asynchronously, charging the caller the
// CPU-side issue cost ("less than 1 µsec", §5.1) unless the QP is hardware
// driven. The WR completes unsignaled.
func (qp *QP) Post(p *sim.Proc, wr WR) {
	if !qp.hw {
		p.Sleep(qp.engine.params.RDMAIssue)
	}
	qp.posted++
	qp.sq.TryPut(wr)
}

// Write performs a blocking one-sided RDMA WRITE.
func (qp *QP) Write(p *sim.Proc, region *memdev.Region, off int, data []byte) CQE {
	return qp.WriteNotify(p, region, off, data, nil)
}

// WriteNotify performs a blocking one-sided RDMA WRITE like Write,
// additionally invoking onDeliver (when non-nil) at the simulated instant
// the data lands in the target region, before the completion returns.
func (qp *QP) WriteNotify(p *sim.Proc, region *memdev.Region, off int, data []byte, onDeliver func(at sim.Time)) (cqe CQE) {
	p.Await(func(t *sim.Task, done func()) {
		qp.WriteNotifyT(t, region, off, data, onDeliver, func(c CQE) { cqe = c; done() })
	})
	return cqe
}

// Read performs a blocking one-sided RDMA READ of n bytes into a fresh
// slice.
func (qp *QP) Read(p *sim.Proc, region *memdev.Region, off, n int) (data []byte) {
	p.Await(func(t *sim.Task, done func()) {
		qp.ReadCQET(t, region, off, n, func(c CQE) { data = append(make([]byte, 0, n), c.Data...); done() })
	})
	return data
}

// ---------------------------------------------------------------------------
// Task-form (continuation-passing) operations: the one body of each RDMA
// operation. The blocking forms above run them from coroutine processes
// through sim.Proc.Await, which consumes no scheduler slot of its own.

// call carries one task-form RDMA operation (WriteT, WriteNotifyT, ReadCQET,
// BarrierT, or a PostAndWaitT batch) through its issue cost, send-queue
// entry and completion wait without per-call closures: its continuations are
// bound once when the frame is created, and frames recycle through QP.calls,
// so the pool is bounded by the operations in flight. Each frame owns its
// completion channel and, for READs, the destination buffer: CQE.Data is
// lent to the continuation and valid only until it returns. A completion
// channel only ever holds buffered completions (TryPut by finish, GetT by
// the poster), so an unbounded recycled channel behaves exactly like a fresh
// one.
type call struct {
	qp    *QP
	t     *sim.Task
	wr    WR
	k     func(CQE)
	reply *sim.Chan[CQE]
	buf   []byte

	issued func()    // pre-bound c.enqueue: runs after the CPU issue cost
	done   func(CQE) // pre-bound c.complete: runs with the completion

	// A batch: the WRs still to post, the doorbell group being posted, the
	// group size, and the checkpoint completions still awaited with the
	// last one seen.
	wrs, group []WR
	doorbell   int
	remaining  int
	last       CQE
	postK      func()    // pre-bound c.postAll: runs after a group's issue cost
	collectedK func(CQE) // pre-bound c.collected: runs with a checkpoint completion
}

// getCall takes a call frame from the QP's pool (or creates one).
func (qp *QP) getCall() *call {
	if n := len(qp.calls); n > 0 {
		c := qp.calls[n-1]
		qp.calls[n-1] = nil
		qp.calls = qp.calls[:n-1]
		return c
	}
	c := &call{qp: qp, reply: sim.NewChan[CQE](qp.engine.sim, 0)}
	c.issued, c.done = c.enqueue, c.complete
	c.postK, c.collectedK = c.postAll, c.collected
	return c
}

// start posts wr from t with Post's sequence (the CPU issue cost unless the
// QP is hardware driven, then the send queue), then waits for its
// completion; k runs with the CQE.
func (c *call) start(t *sim.Task, wr WR, k func(CQE)) {
	wr.reply = c.reply
	c.t, c.wr, c.k = t, wr, k
	if c.qp.hw {
		c.enqueue()
		return
	}
	t.Sleep(c.qp.engine.params.RDMAIssue, c.issued)
}

// readBuf returns the frame's READ destination resized to n bytes.
func (c *call) readBuf(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// enqueue puts the WR in the send queue, then waits for its completion.
func (c *call) enqueue() {
	c.qp.posted++
	c.qp.sq.TryPut(c.wr)
	if cqe, ok := c.reply.GetT(c.t, c.done); ok {
		c.complete(cqe)
	}
}

// complete runs the continuation, then recycles the frame: the READ buffer
// stays reserved until k returns.
func (c *call) complete(cqe CQE) {
	k := c.k
	c.t, c.wr, c.k = nil, WR{}, nil
	k(cqe)
	c.qp.calls = append(c.qp.calls, c)
}

// PostAndWaitT posts wrs in doorbell groups of at most doorbell WRs (one
// issue cost per group) and runs k with the final CQE once the last
// completes. The completion wait is checkpointed: a reply is requested on
// every cqDrain-th WR and on the final one, the rest go unsignaled, and
// since RC QPs complete in posting order, observing a checkpoint CQE implies
// every preceding WR is done — ceil(n/cqDrain) wakeups instead of n.
// doorbell/cqDrain values below 1 mean 1, which degenerates to per-message
// post-and-wait.
func (qp *QP) PostAndWaitT(t *sim.Task, wrs []WR, doorbell, cqDrain int, k func(CQE)) {
	n := len(wrs)
	if n == 0 {
		k(CQE{})
		return
	}
	if doorbell < 1 {
		doorbell = 1
	}
	if cqDrain < 1 {
		cqDrain = 1
	}
	// The batch travels in a pooled call frame, and its checkpoints
	// complete on the frame's channel.
	c := qp.getCall()
	c.t, c.k, c.wrs, c.doorbell = t, k, wrs, doorbell
	for i := range wrs {
		if (i+1)%cqDrain == 0 || i == n-1 {
			wrs[i].reply = c.reply
			c.remaining++
		}
	}
	c.postGroup()
}

// postGroup posts the batch's next run of WRs under a single doorbell
// (multi-WQE posting): the poster pays one issue cost for the whole group
// instead of one per WQE (none on hardware-driven QPs), then the WRs enter
// the send queue in order. The engine-side pipeline cost and wire time remain
// per-WR — doorbell coalescing amortizes only the CPU touch, as on real
// verbs. Once every group is posted, the frame collects the checkpoints.
func (c *call) postGroup() {
	if len(c.wrs) == 0 {
		c.collect()
		return
	}
	end := min(c.doorbell, len(c.wrs))
	c.group, c.wrs = c.wrs[:end], c.wrs[end:]
	if c.qp.hw {
		c.postAll()
		return
	}
	c.t.Sleep(c.qp.engine.params.RDMAIssue, c.postK)
}

// postAll enqueues the group's WRs in order; the unbounded send queue
// accepts every WR inline.
func (c *call) postAll() {
	for _, wr := range c.group {
		c.qp.posted++
		c.qp.sq.TryPut(wr)
	}
	c.postGroup()
}

// collect awaits the batch's remaining checkpoint completions, then
// recycles the frame and runs the continuation with the last one.
func (c *call) collect() {
	for c.remaining > 0 {
		cqe, ok := c.reply.GetT(c.t, c.collectedK)
		if !ok {
			return
		}
		c.last = cqe
		c.remaining--
	}
	k, last := c.k, c.last
	c.t, c.k, c.wrs, c.group, c.last = nil, nil, nil, nil, CQE{}
	c.qp.calls = append(c.qp.calls, c)
	k(last)
}

// collected takes one checkpoint completion and goes on collecting.
func (c *call) collected(cqe CQE) {
	c.last = cqe
	c.remaining--
	c.collect()
}

// WriteT performs a one-sided RDMA WRITE from a task; k runs with the CQE.
func (qp *QP) WriteT(t *sim.Task, region *memdev.Region, off int, data []byte, k func(CQE)) {
	qp.WriteNotifyT(t, region, off, data, nil, k)
}

// WriteNotifyT is WriteT with a delivery hook: onDeliver (when non-nil)
// fires at the instant the data lands in the target region, before the
// completion travels back; k runs with the completion.
func (qp *QP) WriteNotifyT(t *sim.Task, region *memdev.Region, off int, data []byte, onDeliver func(at sim.Time), k func(CQE)) {
	qp.getCall().start(t, WR{Op: OpWrite, Region: region, Offset: off, Data: data, OnDeliver: onDeliver}, k)
}

// ReadCQET performs a one-sided RDMA READ of n bytes from a task; k runs
// with the full completion. CQE.Data holds the bytes read; it is lent to k
// and must be copied to be kept past k's return. CQE.At is the wire instant
// the memory snapshot was taken at — under transport retries (fault plan
// go-back-N) completions are delivered in posting order while snapshots
// land in wire order, so a caller comparing successive reads of shared
// counters must order them by At, not by delivery.
func (qp *QP) ReadCQET(t *sim.Task, region *memdev.Region, off, n int, k func(CQE)) {
	c := qp.getCall()
	c.start(t, WR{Op: OpRead, Region: region, Offset: off, Data: c.readBuf(n)}, k)
}

// BarrierT performs the RDMA-read write barrier of §5.1 from a task: k runs
// once earlier writes to the region are forced visible. Its cost is a full
// read round trip (issue + engine + PCIe RTT, ~2.5 µs); together with the
// separate doorbell write it forces (coalescing is impossible, so a message
// needs three transactions instead of one) the total overhead comes to the
// ~5 µs per message the paper measures.
func (qp *QP) BarrierT(t *sim.Task, region *memdev.Region, k func(CQE)) {
	qp.getCall().start(t, WR{Op: OpBarrier, Region: region}, k)
}

// AddCredits provisions n UC receive credits (the NICA helper thread's ring
// refill, §5.2). Panics on RC QPs, which need no credits.
func (qp *QP) AddCredits(n int) {
	if qp.kind != UC {
		panic("rdma: credits only apply to UC QPs")
	}
	qp.credits += n
}
