// Package profile is the tail-latency attribution engine: it layers on the
// span table (internal/trace) and the monitor's sampled series
// (internal/metrics) to answer "where did the p99 go?". Three pieces:
//
//   - wait/service decomposition: every closed span splits each of its five
//     phases into queue-waiting and in-service time (stamped at the four
//     queueing points: netstack rx queue, dispatcher inbox, mqueue rings,
//     MQ-manager drain), aggregated into per-stage histograms.
//   - bottleneck ranking: per run, each resource's utilization (SNIC cores,
//     GPU SMs, NIC wire) is paired with the growth slope of the queue
//     feeding it and the p99 wait booked against it, producing a ranked
//     report of what is actually limiting the run.
//   - flight recorder: a bounded top-k heap of the slowest completed
//     requests plus a recency ring, with their full stamp vectors, dumped as
//     JSON on demand or automatically when a runtime invariant fires.
//
// Everything here is derived from counters and stamps the simulation already
// maintains; when profiling is disabled nothing in this package is on the
// hot path at all.
package profile

import (
	"sort"
	"sync"
	"time"

	"lynx/internal/trace"
)

// Entry is one completed request held by the flight recorder.
type Entry struct {
	// Span is a copy of the request's full stamp vector at close time.
	Span trace.Span
	// Latency is the end-to-end client-send to client-recv time.
	Latency time.Duration
}

// Recorder is the flight recorder: a bounded min-heap keeping the k slowest
// completed spans and a ring keeping the most recent ones. Both are
// preallocated, so observing a span never allocates; the span table's close
// path stays alloc-free with profiling enabled.
type Recorder struct {
	mu       sync.Mutex
	heap     []Entry // min-heap on (Latency, ID): root is cheapest to evict
	ring     []Entry // recency ring, chronological from next
	next     int
	observed uint64
}

// NewRecorder creates a recorder keeping the topK slowest and ringCap most
// recent spans (defaults 16 and 64 for non-positive arguments).
func NewRecorder(topK, ringCap int) *Recorder {
	if topK <= 0 {
		topK = 16
	}
	if ringCap <= 0 {
		ringCap = 64
	}
	return &Recorder{
		heap: make([]Entry, 0, topK),
		ring: make([]Entry, 0, ringCap),
	}
}

// Attach subscribes the recorder to every span the table closes complete.
// Nil-safe on both sides.
func (r *Recorder) Attach(t *trace.SpanTable) {
	if r == nil || t == nil {
		return
	}
	t.SetOnDone(r.Observe)
}

// Observe records one completed span. The pointee is only valid for the
// duration of the call (SpanTable slots are a ring), so it is copied.
func (r *Recorder) Observe(s *trace.Span) {
	lat, ok := s.Latency(trace.StageClientSend, trace.StageClientRecv)
	if !ok {
		return
	}
	e := Entry{Span: *s, Latency: time.Duration(lat)}
	r.mu.Lock()
	r.observed++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.ring)
	if len(r.heap) < cap(r.heap) {
		r.heap = append(r.heap, e)
		r.siftUp(len(r.heap) - 1)
	} else if entryLess(r.heap[0], e) {
		r.heap[0] = e
		r.siftDown(0)
	}
	r.mu.Unlock()
}

// entryLess orders by latency then span ID, so heap eviction (and therefore
// the retained top-k set) is deterministic even under latency ties.
func entryLess(a, b Entry) bool {
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return a.Span.ID < b.Span.ID
}

func (r *Recorder) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(r.heap[i], r.heap[p]) {
			return
		}
		r.heap[i], r.heap[p] = r.heap[p], r.heap[i]
		i = p
	}
}

func (r *Recorder) siftDown(i int) {
	n := len(r.heap)
	for {
		l, m := 2*i+1, i
		if l < n && entryLess(r.heap[l], r.heap[m]) {
			m = l
		}
		if rt := l + 1; rt < n && entryLess(r.heap[rt], r.heap[m]) {
			m = rt
		}
		if m == i {
			return
		}
		r.heap[i], r.heap[m] = r.heap[m], r.heap[i]
		i = m
	}
}

// Top returns the retained slowest spans, slowest first (ties broken by span
// ID ascending, so the order is deterministic per seed).
func (r *Recorder) Top() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Entry(nil), r.heap...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return entryLess(out[j], out[i]) })
	return out
}

// Recent returns the recency ring in chronological close order.
func (r *Recorder) Recent() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Until the ring fills, next is its length and the first part empty.
	out := append(make([]Entry, 0, len(r.ring)), r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Observed reports how many completed spans the recorder has seen.
func (r *Recorder) Observed() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.observed
}

// recentLoss reports the recency ring's capacity and the completed spans it
// overwrote: Observed minus the entries it keeps.
func (r *Recorder) recentLoss() trace.Loss {
	if r == nil {
		return trace.Loss{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return trace.Loss{Cap: cap(r.ring), Lost: r.observed - uint64(len(r.ring))}
}

// TopK reports the heap bound.
func (r *Recorder) TopK() int {
	if r == nil {
		return 0
	}
	return cap(r.heap)
}
