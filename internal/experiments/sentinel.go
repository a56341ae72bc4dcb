// The sentinel experiment: predict each deployment's saturation knee from a
// single low-load probe (utilization slope + queue-growth model,
// internal/profile) and validate the prediction against the measured
// closed-loop knee. The scorecard gates both ratios.
package experiments

import (
	"fmt"
	"time"

	"lynx/internal/metrics"
	"lynx/internal/profile"
	"lynx/internal/workload"
)

func init() {
	register("sentinel", "knee sentinel: saturation knees predicted from low-load probes vs measured", runSentinel)
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
	row  string
	knee func(Config) kneeOutcome
}{
	{"fig6 (BF, 240mq, 20µs)", fig6Knee},
	{"fig9 (BF, 32mq, 20µs)", fig9Knee},
}

func runSentinel(cfg Config) *Report {
	outs := make([]kneeOutcome, len(sentinelKnees))
	cfg.sweep(len(outs), func(i int) { outs[i] = sentinelKnees[i].knee(cfg) })

	r := &Report{
		ID:      "sentinel",
		Title:   "Knee sentinel: knee predicted from one low-load probe vs measured saturation",
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
