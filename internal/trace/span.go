// Request-scoped span tracing: every request is identified by its workload
// sequence number (the 8-byte little-endian payload prefix all services
// echo), and its virtual timestamps are recorded stage by stage as it moves
// netstack -> dispatcher -> mqueue RX ring -> accelerator -> TX ring ->
// MQ-manager drain -> forward -> client. The table is fixed memory (a ring
// indexed by span ID), all methods are safe on a nil receiver, and nothing
// allocates on the record path, so enabling spans never perturbs the
// simulator hot path and disabling them costs one nil check.
package trace

import (
	"time"

	"lynx/internal/metrics"
	"lynx/internal/sim"
)

// Stage indexes one per-request timestamp within a Span.
type Stage uint8

// Stages in path order. Not every span visits every stage: a dropped request
// stops at StageDispatch, a client-mqueue (backend) round trip only touches
// the Backend stages.
const (
	// StageClientSend: the load generator issued the request.
	StageClientSend Stage = iota
	// StageSnicRecv: the network server received it from the socket.
	StageSnicRecv
	// StageDispatch: the dispatcher picked a queue (pre-RDMA-push).
	StageDispatch
	// StagePushed: the RDMA write carrying the message was delivered into
	// the RX ring (the accelerator can observe the message no earlier than
	// this, so the stage order stays monotone even when consumption beats
	// the write completion's return to the SNIC).
	StagePushed
	// StageAccelRecv: the accelerator consumed it from the RX ring.
	StageAccelRecv
	// StageAccelSent: the accelerator published its response in the TX ring.
	StageAccelSent
	// StageDrain: the MQ manager drained the response from the TX ring.
	StageDrain
	// StageForward: the response left the SNIC toward the client.
	StageForward
	// StageClientRecv: the client received the response (set by Close).
	StageClientRecv
	// StageBackendOut: a client-mqueue message left toward its backend.
	StageBackendOut
	// StageBackendIn: a backend response entered the client mqueue.
	StageBackendIn
	// StageReplPushed: the first replica-bound RDMA WRITE carrying the
	// record was delivered into a peer's ingest mqueue (earliest peer
	// delivery; per-peer deliveries after the first do not move it).
	StageReplPushed
	// StageReplAcked: the first replica ack for the record arrived back at
	// the origin SNIC.
	StageReplAcked
	// StageQuorum: the ack quorum was reached and a held client response
	// was released. Stamped only for writes whose response was actually
	// parked waiting for quorum — a write whose quorum was met before its
	// response drained has no replication wait and no quorum stamp.
	StageQuorum
	// NumStages bounds the per-span timestamp array.
	NumStages
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageClientSend:
		return "client-send"
	case StageSnicRecv:
		return "snic-recv"
	case StageDispatch:
		return "dispatch"
	case StagePushed:
		return "pushed"
	case StageAccelRecv:
		return "accel-recv"
	case StageAccelSent:
		return "accel-sent"
	case StageDrain:
		return "drain"
	case StageForward:
		return "forward"
	case StageClientRecv:
		return "client-recv"
	case StageBackendOut:
		return "backend-out"
	case StageBackendIn:
		return "backend-in"
	case StageReplPushed:
		return "repl-pushed"
	case StageReplAcked:
		return "repl-acked"
	case StageQuorum:
		return "quorum"
	default:
		return "unknown"
	}
}

// Phase is one bucket of the paper-style latency decomposition (§6). The
// phases telescope: for a span with all stages recorded their sum is
// exactly the end-to-end latency.
type Phase uint8

const (
	// PhaseNetwork: client -> SNIC wire time, both directions.
	PhaseNetwork Phase = iota
	// PhaseSNIC: SNIC processing (network stack + dispatch + forward CPU).
	PhaseSNIC
	// PhaseTransfer: the one-sided RDMA push into the accelerator RX ring.
	PhaseTransfer
	// PhaseQueueing: time spent sitting in rings (RX wait + TX drain wait).
	PhaseQueueing
	// PhaseExec: accelerator execution between RX consume and TX publish.
	PhaseExec
	// PhaseReplication: response hold at the origin SNIC waiting for the
	// replica ack quorum (drain -> quorum release). Zero for unreplicated
	// requests and for writes whose quorum was met before the response
	// drained.
	PhaseReplication
	// NumPhases bounds the per-table histogram array.
	NumPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseNetwork:
		return "network"
	case PhaseSNIC:
		return "snic"
	case PhaseTransfer:
		return "transfer"
	case PhaseQueueing:
		return "queueing"
	case PhaseExec:
		return "execution"
	case PhaseReplication:
		return "replication"
	default:
		return "unknown"
	}
}

// SpanStatus is a span's lifecycle state.
type SpanStatus uint8

const (
	// SpanOpen: begun, response not yet accounted for.
	SpanOpen SpanStatus = iota
	// SpanDone: the client received the response.
	SpanDone
	// SpanDropped: the runtime shed the request (full or stalled queue).
	SpanDropped
	// SpanLost: the client gave up (retransmission budget exhausted).
	SpanLost
)

// String names the status.
func (s SpanStatus) String() string {
	switch s {
	case SpanOpen:
		return "open"
	case SpanDone:
		return "done"
	case SpanDropped:
		return "dropped"
	case SpanLost:
		return "lost"
	default:
		return "unknown"
	}
}

// SpanID extracts the request-scoped span ID from a message payload: the
// workload convention's 8-byte little-endian sequence prefix, which servers
// echo in responses and which therefore survives the whole path through
// mqueue rings and accelerator code. Returns 0 (meaning "no span") for
// payloads too short to carry one.
func SpanID(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Span is one request's recorded trajectory.
type Span struct {
	ID     uint64
	Status SpanStatus
	// Queue is the server mqueue the dispatcher picked (-1 before dispatch).
	Queue int32
	// stamps holds one virtual timestamp per stage, -1 when unset.
	stamps [NumStages]sim.Time
	// waits accumulates queue-residency time per phase (the "waiting" half of
	// the wait/service decomposition). Clamped into [0, phase duration] when
	// the span closes, so wait + service telescopes exactly to the phase.
	waits [NumPhases]sim.Time
}

// At returns the timestamp of one stage and whether it was recorded.
func (s *Span) At(st Stage) (sim.Time, bool) {
	if st >= NumStages || s.stamps[st] < 0 {
		return 0, false
	}
	return s.stamps[st], true
}

// Latency returns the stage-to-stage delta, valid only when both are set.
func (s *Span) Latency(from, to Stage) (d sim.Time, ok bool) {
	a, oka := s.At(from)
	b, okb := s.At(to)
	if !oka || !okb {
		return 0, false
	}
	return b - a, true
}

// Phases returns the phase decomposition in path order and whether the
// span is complete (every service stage recorded); the values sum
// exactly to the end-to-end latency.
func (s *Span) Phases() ([NumPhases]time.Duration, bool) {
	var out [NumPhases]time.Duration
	if !s.complete() {
		return out, false
	}
	for p, d := range s.phases() {
		out[p] = time.Duration(d)
	}
	return out, true
}

// WaitIn returns the accumulated queue wait of one phase. On spans closed
// SpanDone the value is clamped into [0, phase duration].
func (s *Span) WaitIn(p Phase) time.Duration {
	if p >= NumPhases {
		return 0
	}
	return time.Duration(s.waits[p])
}

// complete reports whether every stage of the service path was recorded.
func (s *Span) complete() bool {
	for st := StageClientSend; st <= StageClientRecv; st++ {
		if s.stamps[st] < 0 {
			return false
		}
	}
	return true
}

// phases computes the telescoping phase decomposition. Valid only on
// complete spans; the values sum exactly to client-recv minus client-send.
// For replicated writes whose response was parked for quorum (StageQuorum
// set), the drain->quorum hold is carved out of the SNIC phase into
// PhaseReplication; the telescoping sum is unchanged.
func (s *Span) phases() [NumPhases]sim.Time {
	st := &s.stamps
	out := [NumPhases]sim.Time{
		PhaseNetwork:  (st[StageSnicRecv] - st[StageClientSend]) + (st[StageClientRecv] - st[StageForward]),
		PhaseSNIC:     (st[StageDispatch] - st[StageSnicRecv]) + (st[StageForward] - st[StageDrain]),
		PhaseTransfer: st[StagePushed] - st[StageDispatch],
		PhaseQueueing: (st[StageAccelRecv] - st[StagePushed]) + (st[StageDrain] - st[StageAccelSent]),
		PhaseExec:     st[StageAccelSent] - st[StageAccelRecv],
	}
	if q := st[StageQuorum]; q >= 0 {
		out[PhaseReplication] = q - st[StageDrain]
		out[PhaseSNIC] -= out[PhaseReplication]
	}
	return out
}

// SpanTable is a fixed-memory table of request spans, indexed by span ID
// modulo capacity. A nil *SpanTable is valid and records nothing, so every
// call site is a single nil check when tracing is disabled; when enabled, no
// method on the record path (Begin/Stamp/AddWait/SetQueue/Close) allocates.
type SpanTable struct {
	slots []Span

	begun   uint64
	closed  uint64
	evicted uint64
	done    [NumPhases]*metrics.Histogram
	wait    [NumPhases]*metrics.Histogram
	service [NumPhases]*metrics.Histogram
	e2e     *metrics.Histogram
	// onDone, when set, observes every span closed SpanDone with all service
	// stages recorded, after its waits were clamped and the histograms fed.
	// The pointee is only valid for the duration of the call (the slot is a
	// ring); observers must copy what they keep.
	onDone func(*Span)
}

// NewSpanTable creates a table retaining up to capacity concurrent spans
// (a newer span evicts the slot of an older one that maps to it).
func NewSpanTable(capacity int) *SpanTable {
	if capacity <= 0 {
		capacity = 1 << 12
	}
	t := &SpanTable{slots: make([]Span, capacity), e2e: metrics.NewHistogram()}
	for i := range t.slots {
		t.reset(&t.slots[i], 0)
	}
	for p := range t.done {
		t.done[p] = metrics.NewHistogram()
		t.wait[p] = metrics.NewHistogram()
		t.service[p] = metrics.NewHistogram()
	}
	return t
}

func (t *SpanTable) reset(s *Span, id uint64) {
	s.ID = id
	s.Status = SpanOpen
	s.Queue = -1
	for i := range s.stamps {
		s.stamps[i] = -1
	}
	for i := range s.waits {
		s.waits[i] = 0
	}
}

func (t *SpanTable) slot(id uint64) *Span {
	return &t.slots[id%uint64(len(t.slots))]
}

// Begin opens the span for a request issued at the given time. ID 0 means
// "no span" and is ignored. Re-beginning a live span is a no-op; beginning
// over a different span evicts it (the table is a ring).
func (t *SpanTable) Begin(id uint64, at sim.Time) {
	if t == nil || id == 0 {
		return
	}
	s := t.slot(id)
	if s.ID == id {
		return
	}
	if s.ID != 0 && s.Status == SpanOpen {
		t.evicted++
	}
	t.reset(s, id)
	s.stamps[StageClientSend] = at
	t.begun++
}

// Stamp records the stage timestamp of a live span. First write wins:
// retransmitted duplicates of the same request cannot move an earlier
// timestamp or make stages non-monotone. Unknown IDs and closed spans are
// ignored.
func (t *SpanTable) Stamp(id uint64, st Stage, at sim.Time) {
	if t == nil || id == 0 || st >= NumStages {
		return
	}
	s := t.slot(id)
	if s.ID != id || s.Status != SpanOpen || s.stamps[st] >= 0 {
		return
	}
	s.stamps[st] = at
}

// AddWait accumulates queue-residency time into one phase of a live span:
// the interval a request sat in a queue (socket rx ring, dispatcher run
// queue, mqueue RX ring, TX drain backlog) before something started serving
// it. Waits are additive — a phase with two queueing points (e.g. the two
// halves of PhaseQueueing) accumulates both. Non-positive durations, unknown
// IDs and closed spans are ignored, and like the rest of the record path the
// method allocates nothing and is nil-safe.
func (t *SpanTable) AddWait(id uint64, p Phase, d time.Duration) {
	if t == nil || id == 0 || p >= NumPhases || d <= 0 {
		return
	}
	s := t.slot(id)
	if s.ID != id || s.Status != SpanOpen {
		return
	}
	s.waits[p] += sim.Time(d)
}

// StampAt returns one stage timestamp of a live span without copying the
// span, for instrumentation that derives a wait from an earlier stamp (e.g.
// RX-ring residency = consume time minus StagePushed). Nil-safe, alloc-free.
func (t *SpanTable) StampAt(id uint64, st Stage) (sim.Time, bool) {
	if t == nil || id == 0 || st >= NumStages {
		return 0, false
	}
	s := t.slot(id)
	if s.ID != id || s.stamps[st] < 0 {
		return 0, false
	}
	return s.stamps[st], true
}

// SetQueue records which server mqueue the dispatcher picked (first wins).
func (t *SpanTable) SetQueue(id uint64, queue int) {
	if t == nil || id == 0 {
		return
	}
	s := t.slot(id)
	if s.ID != id || s.Status != SpanOpen || s.Queue >= 0 {
		return
	}
	s.Queue = int32(queue)
}

// Close finishes a span exactly once: the first Close wins and later ones
// (a drop followed by the retried request's response, say) are no-ops.
// SpanDone stamps StageClientRecv and, when the span visited every service
// stage, feeds the phase decomposition histograms.
func (t *SpanTable) Close(id uint64, status SpanStatus, at sim.Time) {
	if t == nil || id == 0 || status == SpanOpen {
		return
	}
	s := t.slot(id)
	if s.ID != id || s.Status != SpanOpen {
		return
	}
	s.Status = status
	t.closed++
	if status != SpanDone {
		return
	}
	if s.stamps[StageClientRecv] < 0 {
		s.stamps[StageClientRecv] = at
	}
	if !s.complete() {
		return
	}
	for p, d := range s.phases() {
		w := s.waits[p]
		if w < 0 {
			w = 0
		}
		if w > d {
			w = d
		}
		s.waits[p] = w // clamp in place so observers see the same split
		t.done[p].RecordN(time.Duration(d), 1)
		t.wait[p].RecordN(time.Duration(w), 1)
		t.service[p].RecordN(time.Duration(d-w), 1)
	}
	t.e2e.RecordN(s.stamps[StageClientRecv].Sub(s.stamps[StageClientSend]), 1)
	if t.onDone != nil {
		t.onDone(s)
	}
}

// SetOnDone installs an observer for spans that close SpanDone with every
// service stage recorded (the same spans that feed the histograms). Used by
// the flight recorder; last call wins, nil disarms.
func (t *SpanTable) SetOnDone(fn func(*Span)) {
	if t == nil {
		return
	}
	t.onDone = fn
}

// Spans returns copies of every retained span in ascending ID order (the
// deterministic order exports use).
func (t *SpanTable) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.slots))
	for i := range t.slots {
		if t.slots[i].ID != 0 {
			out = append(out, t.slots[i])
		}
	}
	for i := 1; i < len(out); i++ { // insertion sort: nearly sorted already
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// PhaseHist returns the latency histogram of one decomposition phase,
// accumulated over spans closed SpanDone with all stages recorded.
func (t *SpanTable) PhaseHist(p Phase) *metrics.Histogram {
	if t == nil || p >= NumPhases {
		return nil
	}
	return t.done[p]
}

// PhaseWaitHist returns the queue-wait histogram of one phase, over the same
// spans as PhaseHist. For each of them wait + service equals the phase value.
func (t *SpanTable) PhaseWaitHist(p Phase) *metrics.Histogram {
	if t == nil || p >= NumPhases {
		return nil
	}
	return t.wait[p]
}

// PhaseServiceHist returns the in-service histogram of one phase (the phase
// duration minus its accumulated queue wait).
func (t *SpanTable) PhaseServiceHist(p Phase) *metrics.Histogram {
	if t == nil || p >= NumPhases {
		return nil
	}
	return t.service[p]
}

// EndToEnd returns the end-to-end latency histogram over the same spans that
// feed the phase histograms (so phase means and this mean are comparable).
func (t *SpanTable) EndToEnd() *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.e2e
}

// Begun reports spans opened.
func (t *SpanTable) Begun() uint64 {
	if t == nil {
		return 0
	}
	return t.begun
}

// Closed reports spans finished with any terminal status.
func (t *SpanTable) Closed() uint64 {
	if t == nil {
		return 0
	}
	return t.closed
}

// Evicted reports still-open spans overwritten by ring wraparound.
func (t *SpanTable) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return t.evicted
}

// Cap reports the table capacity.
func (t *SpanTable) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}
