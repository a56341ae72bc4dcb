package sentinel

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"lynx/internal/profile"
)

// Options are the noise bands of a diff: a move is reported only when it
// leaves its band, so run-to-run jitter does not read as regression. Every
// plane is one deterministic measurement per artifact, no sample
// distribution to test, so the bands are declared here, sized from the
// observed seed-to-seed spread of the attribution run.
type Options struct {
	// LatencyFrac is the relative band on latency stats (phase wait/service
	// p99, end-to-end p99). Default 0.10.
	LatencyFrac float64
	// LatencyFloorNs is the absolute move a latency stat must also clear —
	// keeps near-zero stats (a zero-wait phase picking up 300ns) quiet.
	// Default 2000.
	LatencyFloorNs int64
	// UtilAbs is the absolute band on resource utilization, including the
	// rack plane's "-util" series means. Default 0.05.
	UtilAbs float64
	// SlopeAbs is the absolute band on queue-growth slopes (items/sec).
	// Default 2.
	SlopeAbs float64
	// ValueFrac is the relative band on scorecard metric values and on the
	// rack plane's counts and non-utilization series means. A pass→fail
	// flip is always reported regardless of it. Default 0.10.
	ValueFrac float64
	// KneeFrac is the relative band on predicted knee throughput. Default
	// 0.15.
	KneeFrac float64
}

func (o Options) withDefaults() Options {
	if o.LatencyFrac == 0 {
		o.LatencyFrac = 0.10
	}
	if o.LatencyFloorNs == 0 {
		o.LatencyFloorNs = 2000
	}
	if o.UtilAbs == 0 {
		o.UtilAbs = 0.05
	}
	if o.SlopeAbs == 0 {
		o.SlopeAbs = 2
	}
	if o.ValueFrac == 0 {
		o.ValueFrac = 0.10
	}
	if o.KneeFrac == 0 {
		o.KneeFrac = 0.15
	}
	return o
}

// Finding is one out-of-band move between two artifacts.
type Finding struct {
	// Kind classifies the plane: "fingerprint", "phase-wait",
	// "phase-service", "end-to-end", "bottleneck-util", "bottleneck-slope",
	// "bottleneck-rank", "scorecard", "knee", "rack".
	Kind string `json:"kind"`
	// Subject names what moved: a phase, a resource, a claim ID, a rack
	// node.
	Subject string `json:"subject"`
	// Metric is the stat within the subject ("wait_p99_ns", "utilization",
	// "events", ...).
	Metric string  `json:"metric,omitempty"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// DeltaPct is the relative move in percent (0 when Old is 0).
	DeltaPct float64 `json:"delta_pct"`
	// Regression marks moves in the bad direction (latency/utilization up,
	// knee/claim capacity down, claim flipping to fail).
	Regression bool `json:"regression"`
	// Detail carries extra context (p-values, rank changes).
	Detail string `json:"detail,omitempty"`
}

// String renders one finding as a cause-naming report line.
func (f Finding) String() string {
	tag := "moved"
	if f.Regression {
		tag = "REGRESSION"
	}
	d := ""
	if f.Detail != "" {
		d = " (" + f.Detail + ")"
	}
	return fmt.Sprintf("%s %s %s %s: %.4g -> %.4g (%+.1f%%)%s",
		tag, f.Kind, f.Subject, f.Metric, f.Old, f.New, f.DeltaPct, d)
}

// DiffReport is the outcome of comparing two artifacts.
type DiffReport struct {
	OldFingerprint Fingerprint `json:"old_fingerprint"`
	NewFingerprint Fingerprint `json:"new_fingerprint"`
	// Comparable is false when fingerprints or versions differ — findings
	// are still produced but must be read as apples-to-oranges.
	Comparable bool `json:"comparable"`
	// Checked counts comparisons performed; Findings holds only the
	// out-of-band ones, in a fixed plane order (deterministic given the two
	// artifacts).
	Checked  int       `json:"checked"`
	Findings []Finding `json:"findings"`
}

// Clean reports no findings on comparable artifacts — the CI gate.
func (d *DiffReport) Clean() bool { return d.Comparable && len(d.Findings) == 0 }

// Regressions filters the findings that moved in the bad direction.
func (d *DiffReport) Regressions() []Finding {
	var out []Finding
	for _, f := range d.Findings {
		if f.Regression {
			out = append(out, f)
		}
	}
	return out
}

// String renders the full diff report, byte-deterministic for a given pair.
func (d *DiffReport) String() string {
	var b strings.Builder
	if !d.Comparable {
		fmt.Fprintf(&b, "WARNING: artifacts are not comparable (fingerprint mismatch)\n")
		fmt.Fprintf(&b, "  old: %+v\n  new: %+v\n", d.OldFingerprint, d.NewFingerprint)
	}
	if len(d.Findings) == 0 {
		fmt.Fprintf(&b, "no change: %d attribution stats within noise bands\n", d.Checked)
		return b.String()
	}
	reg := len(d.Regressions())
	fmt.Fprintf(&b, "%d of %d stats moved out of band (%d regressions):\n",
		len(d.Findings), d.Checked, reg)
	for _, f := range d.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// WriteTo writes the rendered report.
func (d *DiffReport) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, d.String())
	return int64(n), err
}

// pct is the relative move in percent, 0 when the base is 0.
func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// Diff compares two artifacts plane by plane. Order of findings is fixed:
// fingerprint, phases (path order), end-to-end, bottlenecks (old rank order),
// scorecard (old claim order), knees (old order), rack (old node order, then
// nodes only the new artifact has).
func Diff(old, new *Artifact, opts Options) *DiffReport {
	o := opts.withDefaults()
	d := &DiffReport{
		OldFingerprint: old.Fingerprint,
		NewFingerprint: new.Fingerprint,
		Comparable:     old.Version == new.Version && old.Fingerprint == new.Fingerprint,
	}
	if !d.Comparable {
		d.Findings = append(d.Findings, Finding{
			Kind: "fingerprint", Subject: "artifact",
			Detail: fmt.Sprintf("old %+v vs new %+v", old.Fingerprint, new.Fingerprint),
		})
	}
	d.diffReports(old.Report, new.Report, o)
	d.diffScorecards(old.Scorecard, new.Scorecard, o)
	d.diffKnees(old.Knees, new.Knees, o)
	d.diffRack(old.Rack, new.Rack, o)
	return d
}

// latencyMoved applies the relative band plus the absolute floor.
func (o Options) latencyMoved(old, new int64) bool {
	diff := new - old
	if diff < 0 {
		diff = -diff
	}
	if diff <= o.LatencyFloorNs {
		return false
	}
	band := float64(old) * o.LatencyFrac
	return float64(diff) > band
}

func (d *DiffReport) checkLatency(kind, subject, metric string, old, new int64, o Options) {
	d.Checked++
	if !o.latencyMoved(old, new) {
		return
	}
	d.Findings = append(d.Findings, Finding{
		Kind: kind, Subject: subject, Metric: metric,
		Old: float64(old), New: float64(new),
		DeltaPct: pct(float64(old), float64(new)), Regression: new > old,
	})
}

func (d *DiffReport) diffReports(old, new *profile.Report, o Options) {
	if old == nil || new == nil {
		return
	}
	// Phases: wait p99 and service p99, path order. This is where "which
	// phase moved" comes from — a dispatcher slowdown lands in the SNIC
	// phase's wait, a PCIe change in the transfer phase's service.
	newPhase := make(map[string]profile.PhaseStats, len(new.Phases))
	for _, p := range new.Phases {
		newPhase[p.Phase] = p
	}
	for _, op := range old.Phases {
		np, ok := newPhase[op.Phase]
		if !ok {
			continue
		}
		d.checkLatency("phase-wait", op.Phase, "wait_p99_ns", op.Wait.P99Ns, np.Wait.P99Ns, o)
		d.checkLatency("phase-service", op.Phase, "service_p99_ns", op.Service.P99Ns, np.Service.P99Ns, o)
	}
	d.checkLatency("end-to-end", "end-to-end", "p99_ns", old.EndToEnd.P99Ns, new.EndToEnd.P99Ns, o)

	// Bottlenecks: which resource's utilization or queue slope moved, and
	// whether the top suspect changed at all.
	newBn := make(map[string]profile.Bottleneck, len(new.Bottlenecks))
	for _, b := range new.Bottlenecks {
		newBn[b.Resource] = b
	}
	for _, ob := range old.Bottlenecks {
		nb, ok := newBn[ob.Resource]
		if !ok {
			d.Findings = append(d.Findings, Finding{
				Kind: "bottleneck-util", Subject: ob.Resource, Metric: "utilization",
				Old: ob.Utilization, Regression: false, Detail: "resource absent from new artifact",
			})
			continue
		}
		d.Checked++
		if du := nb.Utilization - ob.Utilization; du > o.UtilAbs || du < -o.UtilAbs {
			d.Findings = append(d.Findings, Finding{
				Kind: "bottleneck-util", Subject: ob.Resource, Metric: "utilization",
				Old: ob.Utilization, New: nb.Utilization,
				DeltaPct: pct(ob.Utilization, nb.Utilization), Regression: du > 0,
			})
		}
		d.Checked++
		if ds := nb.QueueSlope - ob.QueueSlope; ds > o.SlopeAbs || ds < -o.SlopeAbs {
			d.Findings = append(d.Findings, Finding{
				Kind: "bottleneck-slope", Subject: ob.Resource, Metric: "queue_slope_per_sec",
				Old: ob.QueueSlope, New: nb.QueueSlope,
				DeltaPct: pct(ob.QueueSlope, nb.QueueSlope), Regression: ds > 0,
			})
		}
	}
	d.Checked++
	if len(old.Bottlenecks) > 0 && len(new.Bottlenecks) > 0 &&
		old.Bottlenecks[0].Resource != new.Bottlenecks[0].Resource {
		d.Findings = append(d.Findings, Finding{
			Kind: "bottleneck-rank", Subject: new.Bottlenecks[0].Resource, Metric: "rank",
			Old: 0, New: 1, Regression: true,
			Detail: fmt.Sprintf("top bottleneck changed from %s to %s",
				old.Bottlenecks[0].Resource, new.Bottlenecks[0].Resource),
		})
	}
}

func (d *DiffReport) diffScorecards(old, new []ClaimRow, o Options) {
	newRow := make(map[string]ClaimRow, len(new))
	for _, r := range new {
		newRow[r.ID] = r
	}
	for _, or := range old {
		nr, ok := newRow[or.ID]
		if !ok {
			d.Findings = append(d.Findings, Finding{
				Kind: "scorecard", Subject: or.ID, Metric: or.Metric,
				Old: or.Value, Regression: true, Detail: "claim absent from new artifact",
			})
			continue
		}
		d.Checked++
		flipped := or.Pass != nr.Pass
		diff := nr.Value - or.Value
		if diff < 0 {
			diff = -diff
		}
		moved := or.Value != 0 && diff/abs(or.Value) > o.ValueFrac
		if !flipped && !moved {
			continue
		}
		detail := ""
		if flipped {
			detail = fmt.Sprintf("pass %v -> %v, band %s", or.Pass, nr.Pass, nr.Band)
		}
		d.Findings = append(d.Findings, Finding{
			Kind: "scorecard", Subject: or.ID, Metric: or.Metric,
			Old: or.Value, New: nr.Value, DeltaPct: pct(or.Value, nr.Value),
			Regression: flipped && !nr.Pass, Detail: detail,
		})
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func (d *DiffReport) diffKnees(old, new []Knee, o Options) {
	newKnee := make(map[string]Knee, len(new))
	for _, k := range new {
		newKnee[k.Name] = k
	}
	for _, ok_ := range old {
		nk, present := newKnee[ok_.Name]
		if !present {
			continue
		}
		d.Checked++
		op, np := ok_.Estimate.PredictedPerSec, nk.Estimate.PredictedPerSec
		if ok_.Estimate.Valid != nk.Estimate.Valid {
			d.Findings = append(d.Findings, Finding{
				Kind: "knee", Subject: ok_.Name, Metric: "predicted_per_sec",
				Old: op, New: np, Regression: !nk.Estimate.Valid,
				Detail: fmt.Sprintf("estimate validity %v -> %v", ok_.Estimate.Valid, nk.Estimate.Valid),
			})
			continue
		}
		if op == 0 || abs(np-op)/op <= o.KneeFrac {
			continue
		}
		d.Findings = append(d.Findings, Finding{
			Kind: "knee", Subject: ok_.Name, Metric: "predicted_per_sec",
			Old: op, New: np, DeltaPct: pct(op, np),
			// A knee moving down means the system saturates earlier —
			// predicted capacity lost.
			Regression: np < op,
			Detail:     fmt.Sprintf("pivot %s util %.3f -> %.3f", nk.Estimate.Resource, ok_.Estimate.Utilization, nk.Estimate.Utilization),
		})
	}
}

// diffRack compares the rack telemetry sections node by node, old node
// order. Each node's span counts, event volume and series means (name order)
// are checked against UtilAbs ("-util" series) or the relative ValueFrac
// band (the rest, so any move off zero counts); a series missing on one side
// reads as zero. A node on one side only is a finding. A rise is a
// regression: more load, backlog or event volume on the node.
func (d *DiffReport) diffRack(old, new []RackNode, o Options) {
	newNode := make(map[string]RackNode, len(new))
	for _, n := range new {
		newNode[n.Node] = n
	}
	for _, on := range old {
		nn, ok := newNode[on.Node]
		delete(newNode, on.Node)
		if !ok {
			d.Findings = append(d.Findings, Finding{Kind: "rack", Subject: on.Node, Metric: "node",
				Regression: true, Detail: "node absent from new artifact"})
			continue
		}
		ov, nv := rackStats(on), rackStats(nn)
		names := make([]string, 0, len(ov)+len(nv))
		for s := range ov {
			names = append(names, s)
		}
		for s := range nv {
			if _, ok := ov[s]; !ok {
				names = append(names, s)
			}
		}
		sort.Strings(names)
		for _, s := range names {
			d.Checked++
			band := o.ValueFrac * abs(ov[s])
			if strings.HasSuffix(s, "-util") {
				band = o.UtilAbs
			}
			if abs(nv[s]-ov[s]) > band {
				d.Findings = append(d.Findings, Finding{Kind: "rack", Subject: on.Node, Metric: s,
					Old: ov[s], New: nv[s], DeltaPct: pct(ov[s], nv[s]), Regression: nv[s] > ov[s]})
			}
		}
	}
	for _, nn := range new {
		if _, ok := newNode[nn.Node]; ok {
			d.Findings = append(d.Findings, Finding{Kind: "rack", Subject: nn.Node, Metric: "node",
				Detail: "node absent from old artifact"})
		}
	}
}

// rackStats flattens a rack node into named stats for the diff: its counts
// under their JSON names and its series means.
func rackStats(n RackNode) map[string]float64 {
	m := map[string]float64{
		"spans_begun": float64(n.SpansBegun), "spans_closed": float64(n.SpansClosed), "events": float64(n.Events),
	}
	for s, v := range n.SeriesMean {
		m[s] = v
	}
	return m
}
