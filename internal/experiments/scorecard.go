// Scorecard: the paper-fidelity gate. scorecard.json states the evaluation's
// load-bearing shapes (orderings, ratio bands, latency floors) as
// machine-readable claims; scorecardMetrics recomputes every referenced
// metric from fresh simulations using the same named measurement helpers the
// individual experiments use; Evaluate turns the pair into pass/fail rows.
// TestScorecard and `lynxbench -exp scorecard` fail when any claim drifts
// out of its tolerance band, so a change that silently bends the reproduced
// results is caught at test time rather than by a human re-reading tables.
package experiments

import (
	_ "embed"
	"fmt"
	"time"

	"lynx/internal/check"
	"lynx/internal/model"
)

//go:embed scorecard.json
var scorecardJSON []byte

func init() {
	register("scorecard", "paper-fidelity gate: evaluation shape claims vs fresh measurements", scorecard)
}

// loadScorecard parses the embedded claims; the document is validated at
// build time by TestScorecardDocument, so a parse failure here is a bug.
func loadScorecard() check.Scorecard {
	sc, err := check.ParseScorecard(scorecardJSON)
	if err != nil {
		panic(err)
	}
	return sc
}

// scorecardExprs computes every metric scorecard.json references, each an
// expression over the measurement points of the experiment it summarizes,
// so the gate exercises the same code paths as the full tables.
var scorecardExprs = []struct {
	metric string
	eval   func(cfg Config) float64
}{
	{"invocation.overhead_us", func(cfg Config) float64 { return us(measure(cfg, invocationPoint{}).overhead) }},
	{"noisy.p99_inflation", func(cfg Config) float64 {
		return p99Ratio(measure(cfg, noisyCell{true}), measure(cfg, noisyCell{false}))
	}},
	{"fig5.rdma_small", func(cfg Config) float64 { return fig5Gain(cfg, 20) }},
	{"fig5.decline", func(cfg Config) float64 { return speedup(fig5Gain(cfg, 20), fig5Gain(cfg, 1416)) }},
	{"fig6.bf_1mq_short", func(cfg Config) float64 { return fig6Ratio(cfg, platLynxBF, platHostCentric, 1) }},
	{"fig6.bf_240mq_short", func(cfg Config) float64 { return fig6Ratio(cfg, platLynxBF, platHostCentric, 240) }},
	{"fig6.hc_slowest", func(cfg Config) float64 {
		return min(fig6Ratio(cfg, platLynxBF, platHostCentric, 240),
			fig6Ratio(cfg, platLynx1Xeon, platHostCentric, 240), fig6Ratio(cfg, platLynx6Xeon, platHostCentric, 240))
	}},
	{"fig6.bf_over_1xeon", func(cfg Config) float64 { return fig6Ratio(cfg, platLynxBF, platLynx1Xeon, 240) }},
	{"fig6.bf_vs_6xeon_short", func(cfg Config) float64 { return fig6Ratio(cfg, platLynxBF, platLynx6Xeon, 240) }},
	{"fig7.ratio_short", func(cfg Config) float64 { return fig7Ratio(cfg, 5*time.Microsecond) }},
	{"fig7.ratio_long", func(cfg Config) float64 { return fig7Ratio(cfg, 1600*time.Microsecond) }},
	{"fig7.bf_floor_us", func(cfg Config) float64 { return us(measure(cfg, fig7Cell{platLynxBF, 5 * time.Microsecond, 1})) }},
	{"innova.vs_bf", func(cfg Config) float64 { return speedup(measure(cfg, rxInnova), measure(cfg, rxBlueField)) }},
	{"innova.vs_hc", func(cfg Config) float64 { return speedup(measure(cfg, rxInnova), measure(cfg, rxHost)) }},
	{"isolation.bf_inflation", func(cfg Config) float64 {
		return p99Ratio(measure(cfg, isolationCell{true, true}), measure(cfg, isolationCell{true, false}))
	}},
	{"vma.bf_ratio", func(Config) float64 { return vmaStackRatio(model.ARMCore) }},
	{"barrier.extra_us", func(cfg Config) float64 {
		return us(measure(cfg, barrierCell{true}).latency - measure(cfg, barrierCell{false}).latency)
	}},
	{"attribution.dispatcher_rank", func(cfg Config) float64 { return measure(cfg, attributionPoint{}).rank }},
	// How far DefaultBatchConfig lifts BlueField echo throughput over the
	// unit configuration at 240 mqueues, past the per-message serialization
	// knee, where doorbell, completion and dequeue amortization all engage.
	{"batch.knee_gain", func(cfg Config) float64 {
		return speedup(measure(cfg, batchCell{model.DefaultBatchConfig(), 240}), measure(cfg, batchCell{batchConfigs[0].bc, 240}))
	}},
	{"sentinel.fig6_knee_ratio", func(cfg Config) float64 { return fig6Knee(cfg).ratio() }},
	{"sentinel.fig9_knee_ratio", func(cfg Config) float64 { return fig9Knee(cfg).ratio() }},
	// The kill point's failover latency and the acknowledged-write goodput
	// sustained through the outage; fixed windows (see replKillAt) keep both
	// scale-independent.
	{"replication.failover_ms", func(cfg Config) float64 {
		return float64(measure(cfg, replicationPoint{3, 3, true}).lag) / float64(time.Millisecond)
	}},
	{"replication.goodput_floor", func(cfg Config) float64 {
		return measure(cfg, replicationPoint{3, 3, true}).res.GoodputFraction()
	}},
	{"replication.telescope_err", func(cfg Config) float64 { return measure(cfg, replTelescope{}) }},
}

// scorecardMetrics evaluates scorecardExprs, fanned out through cfg.sweep;
// a point several metrics read is simulated once per run (measure).
func scorecardMetrics(cfg Config) map[string]float64 {
	vals := make([]float64, len(scorecardExprs))
	cfg.sweep(len(vals), func(i int) { vals[i] = scorecardExprs[i].eval(cfg) })
	out := make(map[string]float64, len(vals))
	for i, x := range scorecardExprs {
		out[x.metric] = vals[i]
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fig5Gain is Figure 5's all-RDMA speedup over cudaMemcpyAsync at payload.
func fig5Gain(cfg Config, payload int) float64 {
	return speedup(measure(cfg, fig5Cell{fig5Mechanisms[3], payload}), measure(cfg, fig5Cell{fig5Mechanisms[0], payload}))
}

// fig6Ratio is platform a's Figure 6 throughput over platform b's at Fig.
// 6's short (20µs) request time.
func fig6Ratio(cfg Config, a, b string, nMQ int) float64 {
	const reqTime = 20 * time.Microsecond
	return speedup(measure(cfg, fig6Cell{a, reqTime, nMQ}), measure(cfg, fig6Cell{b, reqTime, nMQ}))
}

// fig7Ratio is Figure 7's BlueField/6-Xeon unloaded latency ratio, 1 mqueue.
func fig7Ratio(cfg Config, reqTime time.Duration) float64 {
	return speedup(float64(measure(cfg, fig7Cell{platLynxBF, reqTime, 1})), float64(measure(cfg, fig7Cell{platLynx6Xeon, reqTime, 1})))
}

// scorecard runs the paper-fidelity gate: one row per claim with the measured
// value, the tolerated band, and the paper's reported shape. Report.Failed is
// set when any claim misses its band so callers can gate on the outcome.
func scorecard(cfg Config) *Report {
	sc := loadScorecard()
	results := sc.Evaluate(scorecardMetrics(cfg))
	r := &Report{
		ID:      "scorecard",
		Title:   "Paper-fidelity scorecard: evaluation shapes vs tolerance bands",
		Columns: []string{"metric", "value", "band", "paper", "status"},
	}
	for _, res := range results {
		value := "(missing)"
		if !res.Missing {
			value = fmt.Sprintf("%.3g", res.Value)
		}
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
			r.Failed = true
		}
		r.AddRow(res.Claim.ID, res.Claim.Metric, value, res.Claim.Band(), res.Claim.Paper, status)
	}
	if fails := check.Failures(results); len(fails) > 0 {
		r.Note("%d of %d claims FAILED", len(fails), len(results))
	} else {
		r.Note("all %d claims pass", len(results))
	}
	return r
}
