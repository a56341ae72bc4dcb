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
func kneeProbe(cfg Config, nQueues int, compute time.Duration, slotSize, payload int, rate float64) profile.KneeEstimate {
	e := newEnv(cfg)
	addr, rt := e.echoDeployment(e.lynxPlatform(platLynxBF), nQueues, compute, slotSize)
	reg := metrics.NewRegistry()
	rt.StartMonitor(50*time.Microsecond, reg)
	window := e.cfg.window(20 * time.Millisecond)
	e.measure(workload.Config{
		Proto: workload.UDP, Target: addr, Payload: payload,
		Clients: 16, RatePerSec: rate, Duration: window, Warmup: window / 4,
		Timeout: 500 * time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return profile.PredictKnee(reg, rate)
}

// fig6Knee predicts and measures the Fig. 6 BlueField knee: 240 mqueues,
// short (20µs) requests, 64B messages. The measured side is the same
// closed-loop cell fig6 and the scorecard report.
func fig6Knee(cfg Config) kneeOutcome {
	const reqTime = 20 * time.Microsecond
	return kneeOutcome{
		est:      kneeProbe(cfg, 240, reqTime, 128, 64, kneeProbeRate),
		measured: fig6Throughput(cfg, platLynxBF, reqTime, 240),
	}
}

// fig9Knee predicts and measures the attribution deployment's knee (the
// paper's Fig. 9 operating point): 32 mqueues, 20µs echo, 128B messages,
// saturated by 256 closed-loop clients.
func fig9Knee(cfg Config) kneeOutcome {
	return kneeOutcome{
		est:      kneeProbe(cfg, 32, 20*time.Microsecond, 256, 128, kneeProbeRate),
		measured: attributionRun(cfg).res.Throughput(),
	}
}

func runSentinel(cfg Config) *Report {
	outs := make([]kneeOutcome, 2)
	names := []string{"fig6 (BF, 240mq, 20µs)", "fig9 (BF, 32mq, 20µs)"}
	runs := []func(Config) kneeOutcome{fig6Knee, fig9Knee}
	cfg.sweep(len(runs), func(i int) { outs[i] = runs[i](cfg) })

	r := &Report{
		ID:      "sentinel",
		Title:   "Regression sentinel: knee predicted from one low-load probe vs measured saturation",
		Columns: []string{"probe req/s", "pivot", "util", "predicted req/s", "measured req/s", "ratio"},
	}
	for i, out := range outs {
		if !out.est.Valid {
			r.AddRow(names[i], fmtFloat(out.est.ProbePerSec), out.est.Reason, "", "", fmtFloat(out.measured), "")
			r.Failed = true
			continue
		}
		r.AddRow(names[i], fmtFloat(out.est.ProbePerSec), out.est.Resource,
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
	return fmt.Sprintf("db%d-cq%d-q%d-cw%s", b.EffDoorbell(), b.EffCQDrain(), b.EffQuantum(), b.CoalesceWindow)
}

// BuildSentinelArtifact measures one full sentinel baseline: the attribution
// report at the Fig. 9 saturation point, every scorecard claim, and both knee
// predictions and the rack telemetry sections, stamped with the run's
// fingerprint. This is `lynxbench -baseline` and the measuring side of
// `lynxbench -compare`.
func BuildSentinelArtifact(cfg Config) *sentinel.Artifact {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	sc := loadScorecard()
	var (
		att    attributionOutcome
		met    map[string]float64
		k6, k9 kneeOutcome
		rbo    replBreakdownOutcome
	)
	// The measurement groups are independent simulations; scorecardMetrics
	// fans its own out through cfg.sweep internally, and nested pools are
	// harmless (every point owns its Sim, results collect by index).
	tasks := []func(){
		func() { att = attributionRun(cfg) },
		func() { k6 = fig6Knee(cfg) },
		func() { k9 = fig9Knee(cfg) },
		func() { met = scorecardMetrics(cfg) },
		func() { rbo = replBreakdownRun(cfg) },
	}
	cfg.sweep(len(tasks), func(i int) { tasks[i]() })

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
	for _, k := range []struct {
		name string
		out  kneeOutcome
	}{{"fig6", k6}, {"fig9", k9}} {
		a.Knees = append(a.Knees, sentinel.Knee{
			Name: k.name, Estimate: k.out.est,
			MeasuredPerSec: k.out.measured, Ratio: k.out.ratio(),
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
