// The sentinel experiment and baseline builder: predict each deployment's
// saturation knee from a single low-load probe (utilization slope +
// queue-growth model, internal/profile), validate the prediction against the
// measured closed-loop knee, and freeze a full attribution artifact
// (internal/sentinel) that later releases diff against with `lynxbench
// -compare`.
package experiments

import (
	"fmt"
	"time"

	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/profile"
	"lynx/internal/sentinel"
	"lynx/internal/workload"
)

func init() {
	register("sentinel", "regression sentinel: saturation knees predicted from low-load probes vs measured", runSentinel)
}

// kneeProbeRate is the offered load of every knee probe: roughly a third of
// the BlueField dispatcher's measured knee, low enough that queues stay flat
// and the r/u extrapolation has room to be wrong in either direction.
const kneeProbeRate = 100e3

// kneeOutcome pairs a low-load extrapolation with the measured knee it
// predicts.
type kneeOutcome struct {
	est      profile.KneeEstimate
	measured float64
}

// ratio is predicted/measured — the scorecard metric (0 when the estimate is
// invalid, which always misses the claim band).
func (k kneeOutcome) ratio() float64 {
	if !k.est.Valid || k.measured == 0 {
		return 0
	}
	return k.est.PredictedPerSec / k.measured
}

// kneeProbe runs one open-loop low-load probe of a BlueField echo deployment
// and extrapolates its saturation point from the monitor's utilization
// series. One simulation, a fraction of the knee's load — the whole point is
// predicting the knee without sweeping up to it.
type kneeProbe struct {
	nQueues           int
	compute           time.Duration
	slotSize, payload int
	rate              float64
}

func (k kneeProbe) run(cfg Config) profile.KneeEstimate {
	e := newEnv(cfg)
	addr, rt := e.echoDeployment(e.lynxPlatform(platLynxBF), k.nQueues, k.compute, k.slotSize)
	reg := metrics.NewRegistry()
	rt.StartMonitor(50*time.Microsecond, reg)
	window := e.cfg.window(20 * time.Millisecond)
	e.measure(workload.Config{
		Proto: workload.UDP, Target: addr, Payload: k.payload,
		Clients: 16, RatePerSec: k.rate, Duration: window, Warmup: window / 4,
		Timeout: 500 * time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return profile.PredictKnee(reg, k.rate)
}

// fig6Knee predicts and measures the Fig. 6 BlueField knee: 240 mqueues,
// short (20µs) requests, 64B messages. The measured side is the same
// closed-loop cell fig6 and the scorecard report.
func fig6Knee(cfg Config) kneeOutcome {
	const reqTime = 20 * time.Microsecond
	return kneeOutcome{
		est:      measure(cfg, kneeProbe{240, reqTime, 128, 64, kneeProbeRate}),
		measured: measure(cfg, fig6Cell{platLynxBF, reqTime, 240}),
	}
}

// fig9Knee predicts and measures the attribution deployment's knee (the
// paper's Fig. 9 operating point): 32 mqueues, 20µs echo, 128B messages,
// saturated by 256 closed-loop clients.
func fig9Knee(cfg Config) kneeOutcome {
	return kneeOutcome{
		est:      measure(cfg, kneeProbe{32, 20 * time.Microsecond, 256, 128, kneeProbeRate}),
		measured: measure(cfg, attributionPoint{}).throughput,
	}
}

// sentinelKnees are the knees the sentinel predicts, in report order.
var sentinelKnees = []struct {
	name, row string
	knee      func(Config) kneeOutcome
}{
	{"fig6", "fig6 (BF, 240mq, 20µs)", fig6Knee},
	{"fig9", "fig9 (BF, 32mq, 20µs)", fig9Knee},
}

func runSentinel(cfg Config) *Report {
	outs := make([]kneeOutcome, len(sentinelKnees))
	cfg.sweep(len(outs), func(i int) { outs[i] = sentinelKnees[i].knee(cfg) })

	r := &Report{
		ID:      "sentinel",
		Title:   "Regression sentinel: knee predicted from one low-load probe vs measured saturation",
		Columns: []string{"probe req/s", "pivot", "util", "predicted req/s", "measured req/s", "ratio"},
	}
	for i, out := range outs {
		name := sentinelKnees[i].row
		if !out.est.Valid {
			r.AddRow(name, fmtFloat(out.est.ProbePerSec), out.est.Reason, "", "", fmtFloat(out.measured), "")
			r.Failed = true
			continue
		}
		r.AddRow(name, fmtFloat(out.est.ProbePerSec), out.est.Resource,
			fmt.Sprintf("%.2f", out.est.Utilization), fmtFloat(out.est.PredictedPerSec),
			fmtFloat(out.measured), fmt.Sprintf("%.2f", out.ratio()))
	}
	r.Note("model: knee ≈ 0.85 · probe_rate / bottleneck_utilization (queueing blows up past ~85%% busy); a growing probe-time queue caps the estimate at the probe rate")
	r.Note("the scorecard gates sentinel.fig6_knee_ratio and sentinel.fig9_knee_ratio on these ratios")
	return r
}

// batchDesc renders a batch configuration for the artifact fingerprint.
func batchDesc(b model.BatchConfig) string {
	if b.Unit() {
		return "unit"
	}
	return fmt.Sprintf("db%d-cq%d-q%d", b.EffDoorbell(), b.EffCQDrain(), b.EffQuantum())
}

// BuildSentinelArtifact measures one full sentinel baseline: the attribution
// report at the Fig. 9 saturation point, every scorecard claim, and both knee
// predictions and the rack telemetry sections, stamped with the run's
// fingerprint. This is `lynxbench -baseline` and the measuring side of
// `lynxbench -compare`.
func BuildSentinelArtifact(cfg Config) *sentinel.Artifact {
	cfg = cfg.newRun()
	sc := loadScorecard()
	met := scorecardMetrics(cfg)
	// The attribution report and the rack telemetry come from instrumented
	// runs, which the memo does not hold.
	att, rbo := attributionRun(cfg), replBreakdownRun(cfg)

	a := &sentinel.Artifact{
		Version: sentinel.Version,
		Fingerprint: sentinel.Fingerprint{
			Config:    fmt.Sprintf("seed=%d scale=%g batch=%s", cfg.Seed, cfg.Scale, batchDesc(cfg.Batch)),
			Scorecard: sc.Fingerprint(),
		},
		Report: att.report,
	}
	for _, res := range sc.Evaluate(met) {
		a.Scorecard = append(a.Scorecard, sentinel.ClaimRow{
			ID: res.Claim.ID, Metric: res.Claim.Metric,
			Value: res.Value, Band: res.Claim.Band(), Pass: res.Pass,
		})
	}
	for _, k := range sentinelKnees {
		out := k.knee(cfg)
		a.Knees = append(a.Knees, sentinel.Knee{
			Name: k.name, Estimate: out.est,
			MeasuredPerSec: out.measured, Ratio: out.ratio(),
		})
	}
	a.Rack = rackSections(rbo)
	return a
}

// rackSections freezes each node of the replication rack's telemetry plane
// into artifact rows, node-index order. Means are computed over the retained
// samples of each monitor series; everything is deterministic per seed.
func rackSections(out replBreakdownOutcome) []sentinel.RackNode {
	if out.rack == nil {
		return nil
	}
	rows := make([]sentinel.RackNode, 0, out.rack.Nodes())
	for i := 0; i < out.rack.Nodes(); i++ {
		n := out.rack.Node(i)
		row := sentinel.RackNode{
			Node: n.Name, SpansBegun: n.Spans.Begun(), SpansClosed: n.Spans.Closed(),
			Events: len(n.Prof.Events().Events()),
		}
		for _, s := range n.Prof.Registry().SeriesList() {
			pts := s.Points()
			if len(pts) == 0 {
				continue
			}
			var sum float64
			for _, p := range pts {
				sum += p.V
			}
			if row.SeriesMean == nil {
				row.SeriesMean = make(map[string]float64)
			}
			row.SeriesMean[s.Name()] = sum / float64(len(pts))
		}
		rows = append(rows, row)
	}
	return rows
}
