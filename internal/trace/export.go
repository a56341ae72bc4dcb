// Chrome trace-event export: spans, utilization samples and runtime events
// rendered as the JSON Trace Event Format, loadable in Perfetto or
// chrome://tracing. One process track per simulated component; span stages
// become complete ("X") slices, samples become counter ("C") tracks, tracer
// events become instants ("i"). Timestamps are virtual microseconds.
package trace

import (
	"encoding/json"
	"io"
	"time"

	"lynx/internal/metrics"
	"lynx/internal/sim"
)

// Export is one node's data rendered into a Chrome trace. Any field may be
// nil; an all-nil export still writes a valid (metadata-only) trace.
type Export struct {
	// Name prefixes the node's tracks ("server1/snic", ...) in a timeline of
	// more than one node.
	Name string
	// Spans supplies per-request stage slices.
	Spans *SpanTable
	// Events supplies instant markers from the runtime event ring.
	Events *Tracer
	// Series supplies counter tracks (one per series).
	Series []*metrics.Series
}

// Component tracks (Chrome "process" IDs). Metadata names are emitted for
// each so the timeline reads as the simulated topology.
const (
	pidNetwork  = 1
	pidSNIC     = 2
	pidTransfer = 3
	pidQueue    = 4
	pidAccel    = 5
	pidRuntime  = 6
	pidSamples  = 7

	// pidStride spaces the pid blocks of a multi-node timeline so node i's
	// tracks are i*pidStride + the component pid above.
	pidStride = 8
)

// chromeEvent is one Trace Event Format record. Field order is the emission
// order, and encoding/json preserves it, so output is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// slice describes how one stage interval maps onto a component track.
type slice struct {
	name     string
	from, to Stage
	pid      int
}

// spanSlices is the fixed stage-interval -> track mapping; the tracks
// mirror the phase decomposition so the timeline and the breakdown table
// agree.
var spanSlices = []slice{
	{"net:request", StageClientSend, StageSnicRecv, pidNetwork},
	{"snic:dispatch", StageSnicRecv, StageDispatch, pidSNIC},
	{"rdma:push", StageDispatch, StagePushed, pidTransfer},
	{"queue:rx-wait", StagePushed, StageAccelRecv, pidQueue},
	{"accel:exec", StageAccelRecv, StageAccelSent, pidAccel},
	{"queue:tx-wait", StageAccelSent, StageDrain, pidQueue},
	{"snic:forward", StageDrain, StageForward, pidSNIC},
	{"net:response", StageForward, StageClientRecv, pidNetwork},
}

// replSlices maps the cross-node replication stages; emitted only for spans
// that carry them, so unreplicated traces are byte-identical to before.
var replSlices = []slice{
	{"repl:push", StageDispatch, StageReplPushed, pidTransfer},
	{"repl:ack-wait", StageReplPushed, StageReplAcked, pidQueue},
}

// WriteJSON writes one Chrome trace of the given nodes as
// {"traceEvents": [...]} JSON, so a rack failover reads as one timeline.
// Node i's tracks live at pids i*8+1 .. i*8+7; with more than one node their
// names carry a "<Name>/" prefix, so a one-node timeline is the single-server
// layout. Output is byte-identical across runs for deterministic inputs:
// nodes are rendered in order, spans in ID order, series and events in their
// recorded order.
func WriteJSON(w io.Writer, nodes ...Export) error {
	evs := make([]chromeEvent, 0, 256)
	for i, n := range nodes {
		prefix := ""
		if len(nodes) > 1 {
			prefix = n.Name + "/"
		}
		evs = n.appendTo(evs, i*pidStride, prefix)
	}
	return writeChrome(w, evs)
}

// appendTo renders the export's events into evs with all pids offset by base
// and all track/series names prefixed (""/0 is the single-node layout).
func (e Export) appendTo(evs []chromeEvent, base int, prefix string) []chromeEvent {
	evs = append(evs, metaEvents(base, prefix)...)

	for _, sp := range e.Spans.Spans() {
		tid := 0
		if sp.Queue >= 0 {
			tid = int(sp.Queue)
		}
		emit := func(name string, from, to Stage, pid int) {
			a, oka := sp.At(from)
			b, okb := sp.At(to)
			if !oka || !okb {
				return
			}
			evs = append(evs, chromeEvent{
				Name: prefix + name, Ph: "X", Ts: usec(a), Dur: usec(b) - usec(a),
				Pid: base + pid, Tid: tid,
				Args: map[string]any{"span": sp.ID, "status": sp.Status.String()},
			})
		}
		quorum := false
		if _, ok := sp.At(StageQuorum); ok {
			quorum = true
		}
		for _, sl := range spanSlices {
			// A response parked for quorum splits its SNIC forward slice
			// into the hold (drain -> quorum) and the actual forward.
			if quorum && sl.from == StageDrain && sl.to == StageForward {
				emit("snic:quorum-hold", StageDrain, StageQuorum, sl.pid)
				emit(sl.name, StageQuorum, sl.to, sl.pid)
				continue
			}
			emit(sl.name, sl.from, sl.to, sl.pid)
		}
		for _, sl := range replSlices {
			emit(sl.name, sl.from, sl.to, sl.pid)
		}
	}

	if e.Events != nil {
		for _, ev := range e.Events.Events() {
			evs = append(evs, chromeEvent{
				Name: ev.Kind.String(), Ph: "i", Ts: usec(ev.At),
				Pid: base + pidRuntime, Tid: 0,
				Args: map[string]any{"arg0": ev.Arg0, "arg1": ev.Arg1, "s": "p"},
			})
		}
	}

	for _, s := range e.Series {
		if s == nil {
			continue
		}
		for _, pt := range s.Points() {
			evs = append(evs, chromeEvent{
				Name: prefix + s.Name(), Ph: "C", Ts: float64(pt.At) / float64(time.Microsecond),
				Pid: base + pidSamples, Tid: 0,
				Args: map[string]any{"value": pt.V},
			})
		}
	}
	return evs
}

func writeChrome(w io.Writer, evs []chromeEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ns"})
}

// metaEvents names the component tracks (Chrome process_name metadata).
func metaEvents(base int, prefix string) []chromeEvent {
	tracks := []struct {
		pid  int
		name string
	}{
		{pidNetwork, "network"},
		{pidSNIC, "snic"},
		{pidTransfer, "pcie/rdma"},
		{pidQueue, "mqueue"},
		{pidAccel, "accelerator"},
		{pidRuntime, "runtime-events"},
		{pidSamples, "samplers"},
	}
	out := make([]chromeEvent, 0, len(tracks))
	for _, t := range tracks {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Ts: 0, Pid: base + t.pid, Tid: 0,
			Args: map[string]any{"name": prefix + t.name},
		})
	}
	return out
}
