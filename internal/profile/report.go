package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"lynx/internal/metrics"
	"lynx/internal/trace"
)

// HistStats is a histogram summary. All times are integer nanoseconds so the
// JSON form is byte-deterministic for a deterministic run.
type HistStats struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P90Ns  int64  `json:"p90_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
	MaxNs  int64  `json:"max_ns"`
}

func histStats(h *metrics.Histogram) HistStats {
	return HistStats{
		Count:  h.Count(),
		MeanNs: int64(h.Mean()),
		P50Ns:  int64(h.Median()),
		P90Ns:  int64(h.P90()),
		P99Ns:  int64(h.P99()),
		P999Ns: int64(h.P999()),
		MaxNs:  int64(h.Max()),
	}
}

// PhaseStats is the wait/service decomposition of one pipeline phase across
// all closed spans: total = wait + service, span by span and in aggregate.
type PhaseStats struct {
	Phase   string    `json:"phase"`
	Total   HistStats `json:"total"`
	Wait    HistStats `json:"wait"`
	Service HistStats `json:"service"`
}

// Bottleneck is one ranked resource in the critical-path report.
type Bottleneck struct {
	// Resource names the ranked resource: "dispatcher", "snic-cores",
	// "nic-wire", "replication", "accel/<name>".
	Resource string `json:"resource"`
	// Utilization is the mean of the resource's monitor utilization series.
	Utilization float64 `json:"utilization"`
	// QueueSlope is the least-squares growth rate (items/sec) of the queue
	// feeding the resource; positive means the backlog was growing.
	QueueSlope float64 `json:"queue_slope_per_sec"`
	// WaitP99Ns is the p99 of the wait booked against the resource's phase.
	WaitP99Ns int64 `json:"wait_p99_ns"`
	// Score orders the ranking: utilization plus a bounded backlog-growth
	// bonus, so a saturated resource with a growing queue outranks a
	// saturated resource that keeps up.
	Score float64 `json:"score"`
}

// String renders one ranked line, e.g.
// "dispatcher: util 0.97, wait p99 41µs, queue growing".
func (b Bottleneck) String() string {
	trend := "steady"
	switch {
	case b.QueueSlope > slopeTrendEps:
		trend = "growing"
	case b.QueueSlope < -slopeTrendEps:
		trend = "draining"
	}
	return fmt.Sprintf("%s: util %.2f, wait p99 %v, queue %s",
		b.Resource, b.Utilization, time.Duration(b.WaitP99Ns), trend)
}

// ReplPeer is one replica peer's straggler profile: its ack-latency
// distribution, how many write quorums its ack completed (it was the peer
// the held responses waited on), and the gating margin — how far the
// quorum-completing ack trailed the previous ack for the same write.
type ReplPeer struct {
	Peer         string    `json:"peer"`
	Acks         uint64    `json:"acks"`
	GatedQuorums uint64    `json:"gated_quorums"`
	AckLatency   HistStats `json:"ack_latency"`
	GatingMargin HistStats `json:"gating_margin"`
}

// NewReplPeer summarizes one peer's straggler histograms into report form.
// Nil histograms yield zero stats.
func NewReplPeer(peer string, acks, gated uint64, ackLat, gatingMargin *metrics.Histogram) ReplPeer {
	p := ReplPeer{Peer: peer, Acks: acks, GatedQuorums: gated}
	if ackLat != nil {
		p.AckLatency = histStats(ackLat)
	}
	if gatingMargin != nil {
		p.GatingMargin = histStats(gatingMargin)
	}
	return p
}

// SetReplication installs the per-peer straggler ranking: most gated
// quorums first, ties broken by peer name so the order is deterministic.
func (r *Report) SetReplication(peers []ReplPeer) {
	sort.SliceStable(peers, func(i, j int) bool {
		if peers[i].GatedQuorums != peers[j].GatedQuorums {
			return peers[i].GatedQuorums > peers[j].GatedQuorums
		}
		return peers[i].Peer < peers[j].Peer
	})
	r.Replication = peers
}

// SpanPhase is one phase of one recorded span.
type SpanPhase struct {
	Phase     string `json:"phase"`
	TotalNs   int64  `json:"total_ns"`
	WaitNs    int64  `json:"wait_ns"`
	ServiceNs int64  `json:"service_ns"`
}

// SpanRecord is one flight-recorder entry in report form.
type SpanRecord struct {
	ID        uint64      `json:"id"`
	Status    string      `json:"status"`
	Queue     int32       `json:"queue"`
	LatencyNs int64       `json:"latency_ns"`
	Phases    []SpanPhase `json:"phases"`
}

// Report is one run's attribution report. Field order is fixed and all
// values derive from the deterministic simulation, so marshaling it is
// byte-identical across same-seed runs.
type Report struct {
	// SpansBegun/Closed/Evicted mirror the span table's counters.
	SpansBegun   uint64 `json:"spans_begun"`
	SpansClosed  uint64 `json:"spans_closed"`
	SpansEvicted uint64 `json:"spans_evicted"`
	// EventRing and RecentRing say what the two bounded rings overwrote:
	// the span table's runtime event ring and the flight recorder's recency
	// ring.
	EventRing  trace.Loss `json:"event_ring"`
	RecentRing trace.Loss `json:"recent_ring"`
	// EndToEnd summarizes client-observed latency over all closed spans.
	EndToEnd HistStats `json:"end_to_end"`
	// Phases is the per-phase wait/service decomposition, in path order.
	Phases []PhaseStats `json:"phases"`
	// Bottlenecks ranks resources most-suspect first.
	Bottlenecks []Bottleneck `json:"bottlenecks"`
	// Replication, for replicated deployments, ranks replica peers by how
	// often their ack gated a write quorum (the straggler ranking); empty
	// and omitted for single-server runs.
	Replication []ReplPeer `json:"replication,omitempty"`
	// Top holds the slowest recorded spans, slowest first.
	Top []SpanRecord `json:"top"`
	// Recent holds the most recently closed spans, oldest first.
	Recent []SpanRecord `json:"recent"`
	// Trigger names the invariant violation that forced this dump, empty for
	// on-demand reports.
	Trigger string `json:"trigger,omitempty"`
}

// Build assembles a report from a span table, an optional flight recorder,
// and an optional metrics registry (bottlenecks need the monitor's series;
// without a registry the ranking is empty). All inputs are nil-safe.
func Build(spans *trace.SpanTable, rec *Recorder, reg *metrics.Registry) *Report {
	r := &Report{}
	if spans != nil {
		r.SpansBegun = spans.Begun()
		r.SpansClosed = spans.Closed()
		r.SpansEvicted = spans.Evicted()
		r.EventRing = spans.Events().Loss()
		r.EndToEnd = histStats(spans.EndToEnd())
		for p := trace.PhaseNetwork; p < trace.NumPhases; p++ {
			r.Phases = append(r.Phases, PhaseStats{
				Phase:   p.String(),
				Total:   histStats(spans.PhaseHist(p)),
				Wait:    histStats(spans.PhaseWaitHist(p)),
				Service: histStats(spans.PhaseServiceHist(p)),
			})
		}
	}
	r.RecentRing = rec.recentLoss()
	r.Bottlenecks = buildBottlenecks(spans, reg)
	for _, e := range rec.Top() {
		r.Top = append(r.Top, makeSpanRecord(e))
	}
	for _, e := range rec.Recent() {
		r.Recent = append(r.Recent, makeSpanRecord(e))
	}
	return r
}

func makeSpanRecord(e Entry) SpanRecord {
	rec := SpanRecord{
		ID:        e.Span.ID,
		Status:    e.Span.Status.String(),
		Queue:     e.Span.Queue,
		LatencyNs: int64(e.Latency),
	}
	if ph, ok := e.Span.Phases(); ok {
		rec.Phases = make([]SpanPhase, 0, trace.NumPhases)
		for p := trace.PhaseNetwork; p < trace.NumPhases; p++ {
			w := e.Span.WaitIn(p)
			rec.Phases = append(rec.Phases, SpanPhase{
				Phase:     p.String(),
				TotalNs:   int64(ph[p]),
				WaitNs:    int64(w),
				ServiceNs: int64(ph[p] - w),
			})
		}
	}
	return rec
}

// slopeTrendEps separates "growing"/"draining" from sampling noise when
// rendering a trend (items per second).
const slopeTrendEps = 1.0

// slopeBonus maps a queue-growth slope into a bounded score bonus: a growing
// backlog breaks utilization ties in favour of the resource that is falling
// behind, without ever dominating a large utilization gap.
func slopeBonus(slope float64) float64 {
	return 0.1 * slope / (1 + math.Abs(slope))
}

func buildBottlenecks(spans *trace.SpanTable, reg *metrics.Registry) []Bottleneck {
	if reg == nil {
		return nil
	}
	var out []Bottleneck
	add := func(resource, utilSeries, queueSeries string, waitPhase trace.Phase) {
		u, ok := seriesMean(reg, utilSeries)
		if !ok {
			return
		}
		slope := seriesSlope(reg, queueSeries)
		var p99 int64
		if spans != nil {
			p99 = int64(spans.PhaseWaitHist(waitPhase).P99())
		}
		out = append(out, Bottleneck{
			Resource:    resource,
			Utilization: u,
			QueueSlope:  slope,
			WaitP99Ns:   p99,
			Score:       u + slopeBonus(slope),
		})
	}
	// The dispatcher is the serialized stack/dispatch section (one core at a
	// time); the aggregate worker pool is ranked separately as snic-cores.
	add("dispatcher", "snic/dispatch-util", "snic/backlog", trace.PhaseSNIC)
	add("snic-cores", "snic/core-util", "snic/backlog", trace.PhaseSNIC)
	add("nic-wire", "net/wire-util", "", trace.PhaseNetwork)
	// Replicated deployments publish ingest-ring occupancy; the wait booked
	// against it is the quorum hold. Absent for single-server runs, so
	// their rankings are unchanged.
	add("replication", "repl/ingest-occupancy", "repl/held", trace.PhaseReplication)
	for _, s := range reg.SeriesList() {
		if n, ok := seriesResource(s.Name(), "accel/", "/sm-util"); ok {
			// RX-ring residency (PhaseQueueing) is what grows when the
			// accelerator cannot keep up, so that is the wait booked here.
			add("accel/"+n, s.Name(), "mq/"+n+"/inflight", trace.PhaseQueueing)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}

func seriesResource(name, prefix, suffix string) (string, bool) {
	if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
		return name[len(prefix) : len(name)-len(suffix)], true
	}
	return "", false
}

func findSeries(reg *metrics.Registry, name string) *metrics.Series {
	for _, s := range reg.SeriesList() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// seriesMean returns the plain mean of a series' retained samples, false
// when the series is missing or empty.
func seriesMean(reg *metrics.Registry, name string) (float64, bool) {
	s := findSeries(reg, name)
	if s == nil || s.Len() == 0 {
		return 0, false
	}
	var sum float64
	pts := s.Points()
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts)), true
}

// seriesSlope least-squares-fits the retained samples and returns the growth
// rate per second; zero for missing series or fewer than two samples.
func seriesSlope(reg *metrics.Registry, name string) float64 {
	if name == "" {
		return 0
	}
	s := findSeries(reg, name)
	if s == nil || s.Len() < 2 {
		return 0
	}
	pts := s.Points()
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := p.At.Seconds()
		sx += x
		sy += p.V
		sxx += x * x
		sxy += x * p.V
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// WriteJSON writes the report as indented JSON. Field order is fixed and all
// inputs are deterministic, so same-seed runs produce byte-identical output.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// BottleneckSummary renders the ranked bottleneck list, one line each,
// most-suspect first.
func (r *Report) BottleneckSummary() string {
	var b strings.Builder
	for i, bk := range r.Bottlenecks {
		fmt.Fprintf(&b, "%d. %s\n", i+1, bk)
	}
	return b.String()
}

// Rank returns the 1-based rank of a resource in the bottleneck list, or 0
// when absent.
func (r *Report) Rank(resource string) int {
	for i, b := range r.Bottlenecks {
		if b.Resource == resource {
			return i + 1
		}
	}
	return 0
}
