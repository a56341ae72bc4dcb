// Package core implements the Lynx runtime — the paper's contribution: a
// generic, application-agnostic network server that runs on a SmartNIC (or a
// host CPU core for comparison) and connects network clients to accelerators
// through mqueues (§4).
//
// Components, following Figure 4:
//
//   - Network Server: TCP/UDP endpoints listening on application ports.
//   - Message Dispatcher: maps each received message to a server mqueue
//     according to a dispatch policy, and delivers it with one-sided RDMA.
//   - Message Forwarder: drains responses from TX rings and sends them back
//     to the originating client (server queues) or to the configured backend
//     (client queues).
//   - Remote Message Queue Manager: the RDMA machinery that keeps all
//     mqueue state in accelerator memory, one RC QP and one region per
//     accelerator, with batched header polling.
//
// No application code runs on the SmartNIC; accelerators attach to their
// queues via the lightweight mqueue accelerator-side library.
package core

import (
	"fmt"
	"time"

	"lynx/internal/accel"
	"lynx/internal/check"
	"lynx/internal/cpuarch"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// Platform describes where a Lynx runtime executes: a BlueField SmartNIC, a
// set of host CPU cores, etc.
type Platform struct {
	Sim    *sim.Sim
	Params *model.Params
	// Machine provides the core microarchitecture (Xeon/ARM) and the noisy
	// neighbor state.
	Machine *cpuarch.Machine
	// NetHost is the runtime's network endpoint (the SNIC's multi-homed
	// address, §2, or the host's own when Lynx runs on the CPU).
	NetHost *netstack.Host
	// RDMA is the NIC engine used by the Remote MQ Manager.
	RDMA *rdma.Engine
	// Workers is the number of cores dedicated to the runtime (7 of 8 ARM
	// cores on BlueField, §6.1; 1 or 6 Xeon cores in the comparisons).
	Workers int
	// Bypass selects VMA user-level networking (§5.1.1); the paper always
	// enables it where available.
	Bypass bool
	// Spans, when non-nil, is the node's runtime record (see
	// internal/trace): per-request stage timestamps in a fixed-memory span
	// table and runtime events in its event ring. The runtime threads it
	// through to every mqueue it registers.
	Spans *trace.SpanTable
	// Check, when enabled, receives runtime invariant violations (request
	// conservation, ring bounds, orphan responses). The runtime threads it
	// through to every mqueue it creates at Register time. A nil checker
	// costs one pointer test per guarded site.
	Check *check.Checker
}

// DropCause classifies why the runtime discarded a message.
type DropCause int

const (
	// DropOverflow: a healthy mqueue's RX ring was full — the explicit
	// overload-shedding point (the accelerator is not keeping up).
	DropOverflow DropCause = iota
	// DropStalled: the message was aimed at a watchdog-failed queue and no
	// capacity remained anywhere else.
	DropStalled
	// DropBackend: a backend-facing message was abandoned — a backend
	// response hit a full client-mqueue RX ring, or a client-mqueue request
	// exhausted its retransmission budget.
	DropBackend
)

// String names the cause.
func (c DropCause) String() string {
	switch c {
	case DropOverflow:
		return "overflow"
	case DropStalled:
		return "stalled"
	case DropBackend:
		return "backend"
	default:
		return "unknown"
	}
}

// Stats is the runtime's counter snapshot. All counters are monotonic.
type Stats struct {
	// Received counts messages accepted from the network into mqueues.
	Received uint64
	// Responded counts responses sent back to clients.
	Responded uint64
	// Forwarded counts client-mqueue messages shipped to backends.
	Forwarded uint64
	// DroppedOverflow/DroppedStalled/DroppedBackend count discarded
	// messages by cause (see DropCause).
	DroppedOverflow uint64
	DroppedStalled  uint64
	DroppedBackend  uint64
	// Retries reads 0: nothing in the runtime retransmits any more (client
	// mqueues speak TCP, and clients retry on their own). It stays in the
	// stats line and the monitor's "retries" series so both keep their
	// shape.
	Retries uint64
	// Failovers counts queues the MQ-manager watchdog marked failed;
	// Failbacks counts queues it restored after they made progress again.
	Failovers uint64
	Failbacks uint64
}

// Dropped totals discarded messages across all causes.
func (s Stats) Dropped() uint64 {
	return s.DroppedOverflow + s.DroppedStalled + s.DroppedBackend
}

// String formats the snapshot on one line with a stable field order, so it is
// byte-comparable across runs in determinism tests.
func (s Stats) String() string {
	return fmt.Sprintf("received=%d responded=%d forwarded=%d dropped=%d(overflow=%d stalled=%d backend=%d) retries=%d failovers=%d failbacks=%d",
		s.Received, s.Responded, s.Forwarded, s.Dropped(),
		s.DroppedOverflow, s.DroppedStalled, s.DroppedBackend,
		s.Retries, s.Failovers, s.Failbacks)
}

// Runtime is one Lynx instance.
type Runtime struct {
	plat   Platform
	cores  *sim.Resource
	serial *sim.Resource

	handles     []*AccelHandle
	services    []*Service
	clients     []*ClientBinding
	replicators []*Replicator

	started bool

	stats Stats

	cpuBusy    time.Duration
	serialBusy time.Duration
	execCalls  uint64

	// execFrames pools the scratch frames that carry task-substrate exec
	// calls through their serialized/parallel resource holds (see
	// execFrame in runtime_task.go). The event loop is single-threaded, so
	// a plain slice free list suffices.
	execFrames []*execFrame

	// inTransit counts requests popped from a reply FIFO but not yet
	// answered (or relayed into the next stage): a shutdown can
	// kill the forwarding process inside that window, leaving the request
	// in neither the pending FIFOs nor the Responded counter. The
	// conservation finisher counts them as in-flight.
	inTransit uint64
}

// drop records one discarded message with its cause (arg1 of the trace.Drop
// event) and the queue index it was aimed at (arg0).
func (rt *Runtime) drop(now sim.Time, cause DropCause, qi uint64) {
	switch cause {
	case DropStalled:
		rt.stats.DroppedStalled++
	case DropBackend:
		rt.stats.DroppedBackend++
	default:
		rt.stats.DroppedOverflow++
	}
	rt.plat.Spans.Emit(now, trace.Drop, qi, uint64(cause))
}

// responded books a response sent to its client: the counter, the span's
// SNIC-phase queueing wait qw, its forward stamp and the tracer event.
func (rt *Runtime) responded(now sim.Time, payload []byte, qw time.Duration) {
	rt.stats.Responded++
	id := trace.SpanID(payload)
	rt.plat.Spans.AddWait(id, trace.PhaseSNIC, qw)
	rt.plat.Spans.Stamp(id, trace.StageForward, now)
	rt.plat.Spans.Emit(now, trace.Forward, uint64(len(payload)), 0)
}

// ExecCalls reports frontend execT charges (for utilization probes).
func (rt *Runtime) ExecCalls() uint64 { return rt.execCalls }

// NewRuntime creates a runtime on the platform. Call Register/AddService/
// AddClientQueue before Start.
func NewRuntime(plat Platform) *Runtime {
	if plat.Workers <= 0 {
		plat.Workers = 1
	}
	rt := &Runtime{
		plat:   plat,
		cores:  sim.NewResource(plat.Sim, plat.Workers),
		serial: sim.NewResource(plat.Sim, 1),
	}
	if ck := plat.Check; ck.Enabled() {
		// Request conservation at end of run: every message accepted into an
		// mqueue (Received) is either answered (Responded), still waiting in a
		// reply FIFO (in flight at shutdown), or — for pipelines — shed at a
		// later stage (recorded in the drop counters). Responses can never
		// outnumber their requests.
		ck.AddFinisher("core.request-conservation", func(fail func(string, ...any)) {
			var inflight uint64
			for _, svc := range rt.services {
				for _, stage := range svc.stages {
					for _, bq := range stage {
						for _, fifo := range bq.pending {
							inflight += uint64(len(fifo))
						}
					}
				}
			}
			// Responses parked by a replication layer for peer acks were
			// popped from their FIFOs but not yet answered.
			for _, r := range rt.replicators {
				inflight += r.held
			}
			inflight += rt.inTransit
			st := rt.stats
			if st.Responded+inflight > st.Received {
				fail("responded %d + in-flight %d exceeds received %d",
					st.Responded, inflight, st.Received)
			}
			if st.Received > st.Responded+inflight+st.Dropped() {
				fail("received %d but only %d responded + %d in-flight + %d dropped",
					st.Received, st.Responded, inflight, st.Dropped())
			}
		})
	}
	return rt
}

// stackCost is the CPU cost of one message on the given client-facing
// transport.
func (rt *Runtime) stackCost(p Proto) time.Duration {
	if p == TCP {
		return rt.plat.Params.TCPCost(model.XeonCore, rt.plat.Bypass)
	}
	return rt.plat.Params.UDPCost(model.XeonCore, rt.plat.Bypass)
}

// ---------------------------------------------------------------------------
// Accelerator registration (the host-CPU setup role of §4.3)

// AccelHandle binds one accelerator's mqueue group.
type AccelHandle struct {
	acc    accel.Accelerator
	group  *mqueue.Group
	accQs  []*mqueue.AccelQueue
	nInUse int
}

// Register allocates n mqueues in the accelerator's memory, establishes the
// per-accelerator RC QP (one per accelerator, §5.1), and returns the handle.
// This models the host-CPU initialization step: the host sets everything up,
// passes the pointers around, and "remains idle from that point" (§4.3).
func (rt *Runtime) Register(acc accel.Accelerator, cfg mqueue.Config, n int) (*AccelHandle, error) {
	return rt.register(acc, cfg, n, fmt.Sprintf("lynx-mq%d", len(rt.handles)), acc.RemoteHost() != "")
}

// register is Register with an explicit region name (several runtimes can
// allocate in the same accelerator's memory — replication ingest queues do)
// and QP remoteness. A queue gets the span table unless cfg marks it a
// replication ingest ring (ReplSpans).
func (rt *Runtime) register(acc accel.Accelerator, cfg mqueue.Config, n int, region string, remote bool) (*AccelHandle, error) {
	if rt.started {
		return nil, fmt.Errorf("core: cannot register accelerators after Start")
	}
	mem, err := acc.Device().Mem.Alloc(region, mqueue.GroupFootprint(cfg, n))
	if err != nil {
		return nil, fmt.Errorf("core: allocating mqueue region on %s: %w", acc.Name(), err)
	}
	qp := rt.plat.RDMA.CreateQP(acc.Device(), rdma.QPConfig{
		Kind:   rdma.RC,
		Remote: remote,
	})
	cfg.Check = rt.plat.Check
	if cfg.ReplSpans == nil {
		cfg.Spans = rt.plat.Spans
	}
	group, err := mqueue.NewGroup(mem, 0, cfg, n, qp)
	if err != nil {
		return nil, err
	}
	prof := acc.Profile()
	prof.Check = rt.plat.Check
	accQs, err := mqueue.AttachGroup(mem, 0, cfg, n, prof)
	if err != nil {
		return nil, err
	}
	h := &AccelHandle{acc: acc, group: group, accQs: accQs}
	rt.handles = append(rt.handles, h)
	return h, nil
}

// AccelQueues returns the accelerator-side queue handles, to be wired into
// the accelerator's request-processing code (persistent kernel TBs etc.).
func (h *AccelHandle) AccelQueues() []*mqueue.AccelQueue { return h.accQs }

// claim reserves count queues of the handle for a service or client binding.
func (h *AccelHandle) claim(count int) ([]*mqueue.Queue, []int, error) {
	if h.nInUse+count > h.group.Len() {
		return nil, nil, fmt.Errorf("core: accelerator %s has %d free mqueues, %d requested",
			h.acc.Name(), h.group.Len()-h.nInUse, count)
	}
	base := h.nInUse
	var qs []*mqueue.Queue
	var idx []int
	for i := 0; i < count; i++ {
		qs = append(qs, h.group.Queue(base+i))
		idx = append(idx, base+i)
	}
	h.nInUse += count
	return qs, idx, nil
}

// unclaim rolls back the most recent claim of count queues (used when a
// later stage/handle of the same registration fails).
func (h *AccelHandle) unclaim(count int) { h.nInUse -= count }

// ---------------------------------------------------------------------------
// Dispatch policies (§4.2: "according to the dispatching policy, e.g. load
// balancing for stateless services, or steering messages to specific queues
// for stateful ones")

// Policy selects a server mqueue for an incoming message.
type Policy interface {
	// Pick returns a queue index in [0, n) for a message from the client.
	Pick(from netstack.Addr, n int) int
}

// RoundRobin balances load across queues (stateless services).
type RoundRobin struct{ next int }

// Pick implements Policy.
func (r *RoundRobin) Pick(_ netstack.Addr, n int) int {
	i := r.next % n
	r.next++
	return i
}

// LeastLoaded picks the queue with the fewest in-flight requests, falling
// back to round-robin among ties. It uses only SNIC-local state (the
// dispatcher's own in-flight accounting), so it costs nothing extra on the
// wire.
type LeastLoaded struct {
	queues []*mqueue.Queue
	rr     int
}

// NewLeastLoaded builds the policy for a service's queues. Pass the queues
// in the order the service claims them; AddService with this policy must use
// the same accelerator handles.
func NewLeastLoaded(h *AccelHandle) *LeastLoaded {
	p := &LeastLoaded{}
	for i := 0; i < h.group.Len(); i++ {
		p.queues = append(p.queues, h.group.Queue(i))
	}
	return p
}

// Pick implements Policy.
func (l *LeastLoaded) Pick(_ netstack.Addr, n int) int {
	if len(l.queues) < n {
		// Not wired to the handle (or wired partially): degrade to RR.
		l.rr++
		return (l.rr - 1) % n
	}
	best, bestLoad := 0, int(^uint(0)>>1)
	for i := 0; i < n; i++ {
		qi := (l.rr + i) % n // rotate tie-breaking
		if load := l.queues[qi].InFlight(); load < bestLoad {
			best, bestLoad = qi, load
		}
	}
	l.rr++
	return best
}

// StickyHash steers each client to a fixed queue (stateful services).
type StickyHash struct{}

// Pick implements Policy.
func (StickyHash) Pick(from netstack.Addr, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(from.Host); i++ {
		h = (h ^ uint32(from.Host[i])) * 16777619
	}
	h = (h ^ uint32(from.Port)) * 16777619
	// Final avalanche: FNV's low bits are weak for modulo bucketing.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	return int(h % uint32(n))
}

// ---------------------------------------------------------------------------
// Services

// Proto selects the client-facing transport of a service.
type Proto int

const (
	// UDP transport (sockperf-style datagrams).
	UDP Proto = iota
	// TCP transport (framed messages over connections).
	TCP
)

// String names the protocol.
func (p Proto) String() string {
	if p == TCP {
		return "TCP"
	}
	return "UDP"
}

// replyTo records where a response must go: the request's TCP connection,
// or else the UDP address it came from.
type replyTo struct {
	udpFrom netstack.Addr
	conn    *netstack.TCPConn
}

// send delivers a response payload to the client that asked for it; sock is
// the frontend's UDP socket.
func (to replyTo) send(sock *netstack.UDPSocket, payload []byte) {
	if to.conn != nil {
		_ = to.conn.Send(nil, payload)
		return
	}
	sock.SendTo(to.udpFrom, payload)
}

// addr is the client's address: the dispatch policy's key at every stage.
func (to replyTo) addr() netstack.Addr {
	if to.conn != nil {
		return to.conn.RemoteAddr()
	}
	return to.udpFrom
}

// boundQueue is one server mqueue attached to a service stage.
type boundQueue struct {
	q *mqueue.Queue
	h *AccelHandle
	// pending maps RX slot -> FIFO of outstanding reply destinations.
	pending [][]replyTo
	// failed marks the queue as stalled per the MQ-manager watchdog;
	// dispatch steers new work away until the queue makes progress again.
	failed bool
}

// Service is one accelerated network service frontend.
type Service struct {
	rt     *Runtime
	proto  Proto
	port   uint16
	policy Policy
	// stages[i] holds the parallel queues of stage i: requests enter stage
	// 0, each earlier stage's output is relayed into the next, and the last
	// stage's output answers the client. AddService builds one stage,
	// AddPipeline one per accelerator handle (see pipeline.go).
	stages [][]*boundQueue

	udpSock *netstack.UDPSocket
	tcpList *netstack.TCPListener

	relayed uint64 // stage-to-stage messages moved by the SNIC

	// repl, when non-nil, replicates the service's writes to peer
	// accelerators before their responses are released (see replicate.go).
	// Every hook on the hot paths is gated on this pointer, so an
	// unreplicated service executes exactly the pre-replication sequence.
	repl *Replicator
}

// AddService exposes `count` mqueues of each given accelerator handle as one
// network service on port. Queues from all handles form the dispatch set.
func (rt *Runtime) AddService(proto Proto, port uint16, policy Policy, count int, handles ...*AccelHandle) (*Service, error) {
	return rt.addService(proto, port, policy, count, handles, false)
}

// addService claims `count` mqueues of each handle for a frontend on port:
// all of them one stage, or with perHandle one stage per handle.
func (rt *Runtime) addService(proto Proto, port uint16, policy Policy, count int, handles []*AccelHandle, perHandle bool) (*Service, error) {
	if rt.started {
		return nil, fmt.Errorf("core: cannot add services after Start")
	}
	if policy == nil {
		policy = &RoundRobin{}
	}
	svc := &Service{rt: rt, proto: proto, port: port, policy: policy}
	var claimed []*AccelHandle
	rollback := func() {
		for _, h := range claimed {
			h.unclaim(count)
		}
	}
	for _, h := range handles {
		qs, _, err := h.claim(count)
		if err != nil {
			rollback()
			return nil, err
		}
		claimed = append(claimed, h)
		if perHandle || len(svc.stages) == 0 {
			svc.stages = append(svc.stages, nil)
		}
		last := len(svc.stages) - 1
		for _, q := range qs {
			svc.stages[last] = append(svc.stages[last], &boundQueue{
				q: q, h: h, pending: make([][]replyTo, q.Config().Slots),
			})
		}
	}
	if len(svc.stages) == 0 || len(svc.stages[0]) == 0 {
		return nil, fmt.Errorf("core: service on port %d has no mqueues", port)
	}
	var err error
	switch proto {
	case UDP:
		svc.udpSock, err = rt.plat.NetHost.UDPBind(port)
	case TCP:
		svc.tcpList, err = rt.plat.NetHost.TCPListen(port)
	}
	if err != nil {
		rollback()
		return nil, err
	}
	rt.services = append(rt.services, svc)
	return svc, nil
}

// Addr returns the service's network address.
func (s *Service) Addr() netstack.Addr { return s.rt.plat.NetHost.Addr(s.port) }

// Relayed reports stage-to-stage messages moved by the SNIC.
func (s *Service) Relayed() uint64 { return s.relayed }

// pick applies the dispatch policy to one stage's queues for a message from
// the client. Queues the watchdog marked failed are skipped (graceful
// degradation): the pick rotates forward to the next healthy queue. When
// every queue is failed the original pick is kept — shedding everything on a
// (possibly false) watchdog verdict would be worse than trying the ring.
func (s *Service) pick(stage int, from netstack.Addr) int {
	queues := s.stages[stage]
	qi := s.policy.Pick(from, len(queues))
	if queues[qi].failed {
		for off := 1; off < len(queues); off++ {
			if alt := (qi + off) % len(queues); !queues[alt].failed {
				return alt
			}
		}
	}
	return qi
}

// popReply takes the oldest reply destination waiting on an RX slot. The
// rest of the slot's FIFO shifts down in place, so each slot reuses one
// backing array for the whole run instead of reallocating per request.
func popReply(fifos [][]replyTo, slot uint16) (replyTo, bool) {
	fifo := fifos[slot]
	if len(fifo) == 0 {
		return replyTo{}, false
	}
	to := fifo[0]
	n := copy(fifo, fifo[1:])
	fifo[n] = replyTo{}
	fifos[slot] = fifo[:n]
	return to, true
}

// shareWait splits a measured queueing wait evenly across the k spans of a
// batch, folding the integer-division remainder into the first share so the
// shares sum exactly to the measured wait: the telescoping identity the
// attribution profile checks (phase waits never exceed phase totals) must
// hold to the nanosecond, per-message wait booking just with batched
// service (elapsed minus charged over a quantum instead of per message).
func shareWait(qw time.Duration, k, i int) time.Duration {
	share := qw / time.Duration(k)
	if i == 0 {
		share += qw % time.Duration(k)
	}
	return share
}

// ---------------------------------------------------------------------------
// Client mqueues (§4.3: accelerator-initiated connections to backends)

// ClientBinding wires one client mqueue to a fixed backend destination over
// one TCP connection (the §6.4 memcached pattern).
type ClientBinding struct {
	rt   *Runtime
	dst  netstack.Addr
	bq   *boundQueue
	conn *netstack.TCPConn
	qi   int

	// The pump task's frame (see pump): the backend message in flight.
	t        *sim.Task
	msg      []byte
	msgK     func([]byte, sim.Time, error)
	chargedK func(time.Duration)
	pushedK  func(slot int, err error)
}

// AddClientQueue claims one mqueue of the handle as a client mqueue bound to
// dst. "The destination address is assigned when the server is initialized"
// (§4.3): the connection is established at Start and never changes.
func (rt *Runtime) AddClientQueue(h *AccelHandle, dst netstack.Addr) (*ClientBinding, error) {
	if rt.started {
		return nil, fmt.Errorf("core: cannot add client queues after Start")
	}
	qs, idx, err := h.claim(1)
	if err != nil {
		return nil, err
	}
	cb := &ClientBinding{
		rt: rt, dst: dst, qi: idx[0],
		bq: &boundQueue{q: qs[0], h: h},
	}
	rt.clients = append(rt.clients, cb)
	return cb, nil
}

// QueueIndex returns the index of the claimed mqueue within the handle's
// group (to find the matching AccelQueues() entry).
func (cb *ClientBinding) QueueIndex() int { return cb.qi }

// ---------------------------------------------------------------------------
// Runtime start: spawn the worker processes

// Start brings up the Network Server, Message Dispatcher, Message Forwarder
// and Remote MQ Manager. Every stage runs as a run-to-completion Task (see
// runtime_task.go). It must be called once, after all registration.
func (rt *Runtime) Start() error {
	if rt.started {
		return fmt.Errorf("core: already started")
	}
	rt.started = true
	s := rt.plat.Sim

	// Network server: one receive context per worker core draining a
	// service's UDP socket (RSS-like), or one per TCP connection, spawned by
	// the port's accept context.
	for _, svc := range rt.services {
		svc := svc
		switch svc.proto {
		case UDP:
			for w := 0; w < rt.plat.Workers; w++ {
				name := fmt.Sprintf("lynx/udp-rx:%d/%d", svc.port, w)
				if rt.plat.Params.Batch.Unit() {
					s.SpawnTask(name, rt.newRx(svc, nil).run)
				} else {
					// Batched dequeue: each context drains a quantum of
					// ready datagrams per wakeup, then dispatches the run
					// through the serialized section once.
					s.SpawnTask(name, rt.newBatchRx(svc).run)
				}
			}
		case TCP:
			s.SpawnTask(fmt.Sprintf("lynx/tcp-accept:%d", svc.port),
				rt.acceptor(svc.tcpList, fmt.Sprintf("lynx/tcp-rx:%d", svc.port), svc))
		}
	}

	// Client bindings: establish static connections, then pump responses
	// inbound.
	for _, cb := range rt.clients {
		s.SpawnTask(fmt.Sprintf("lynx/client-mq:%s", cb.dst), cb.pump)
	}

	// Replication delivery pumps: one per replicated service, flushing
	// record outboxes into peer ingest rings and finishing the forward of
	// responses whose quorum was met. Spawned only when a replicator
	// exists, so unreplicated runtimes schedule exactly as before.
	for _, r := range rt.replicators {
		s.SpawnTask(fmt.Sprintf("lynx/repl-pump:%d", r.svc.port), r.pump)
	}

	// Remote MQ manager + message forwarder: the sweep contexts of each
	// accelerator (its QP context), draining TX rings with batched header
	// polling.
	for _, h := range rt.handles {
		h := h
		sinks := rt.sinks(h)
		// The Remote MQ Manager's sweep work is shared by the worker
		// cores: each context owns a partition of the accelerator's
		// queues (the paper's workers split mqueues round-robin, §6.1).
		nMgr := rt.plat.Workers
		if nMgr > h.group.Len() {
			nMgr = h.group.Len()
		}
		for w := 0; w < nMgr; w++ {
			w := w
			s.SpawnTask(fmt.Sprintf("lynx/mq-manager:%s/%d", h.acc.Name(), w), func(t *sim.Task) {
				rt.newMQManager(t, h, sinks, w, nMgr).sweep()
			})
		}
	}
	return nil
}

// sink is what one queue of an accelerator's group feeds: a service stage,
// a client binding, or a replication peer's ingest ring.
type sink struct {
	svc   *Service
	stage int
	cb    *ClientBinding
	bq    *boundQueue
	rp    *replPeer
}

// sinks maps every queue of h's group to what it feeds.
func (rt *Runtime) sinks(h *AccelHandle) []sink {
	sinks := make([]sink, h.group.Len())
	for _, svc := range rt.services {
		for si, stage := range svc.stages {
			for _, bq := range stage {
				if bq.h != h {
					continue
				}
				for i := 0; i < h.group.Len(); i++ {
					if h.group.Queue(i) == bq.q {
						sinks[i] = sink{svc: svc, stage: si, bq: bq}
					}
				}
			}
		}
	}
	for _, cb := range rt.clients {
		if cb.bq.h == h {
			sinks[cb.qi] = sink{cb: cb, bq: cb.bq}
		}
	}
	for _, r := range rt.replicators {
		for _, rp := range r.peers {
			if rp.h != h {
				continue
			}
			for i := 0; i < h.group.Len(); i++ {
				if h.group.Queue(i) == rp.q {
					sinks[i] = sink{rp: rp}
				}
			}
		}
	}
	return sinks
}

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats { return rt.stats }
