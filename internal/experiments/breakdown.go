// The breakdown experiment: a paper-style latency decomposition. Request
// spans (internal/trace) split each measured request's end-to-end latency
// into network, SNIC, PCIe/RDMA transfer, queueing and accelerator-execution
// phases; the phases telescope, so their means sum to the end-to-end mean
// exactly (the experiment's own consistency check, asserted in tests). With
// Config.Obs set it also writes the full Chrome trace-event timeline, the
// metrics dump and the attribution report.
package experiments

import (
	"fmt"
	"time"

	"lynx/internal/snic"
	"lynx/internal/trace"
	"lynx/internal/workload"
)

func init() {
	register("breakdown", "per-request latency decomposition across the Lynx pipeline", runBreakdown)
}

// breakdownOutcome bundles everything one instrumented run produces.
type breakdownOutcome struct {
	res workload.Result
	tb  *snic.Testbed // shut down; its plane is nil when untraced
}

// BreakdownRun drives the breakdown deployment once — the BlueField GPU echo
// service, with the observability plane either fully enabled or fully
// disabled — and returns the workload result. Exported so the root-level
// overhead benchmark can compare traced and untraced runs of the exact same
// deployment.
func BreakdownRun(cfg Config, traced bool) workload.Result {
	return breakdownRun(cfg, traced).res
}

func breakdownRun(cfg Config, traced bool) breakdownOutcome {
	e := newEnv(cfg)
	if traced {
		e.arm(1 << 14)
	}
	addr, rt := e.echoDeployment(e.lynxPlatform(platLynxBF), 8, 20*time.Microsecond, 256)
	if traced {
		e.observe(rt)
	}
	window := e.cfg.window(20 * time.Millisecond)
	out := breakdownOutcome{tb: e.tb}
	out.res = e.measure(workload.Config{
		Proto: workload.UDP, Target: addr, Payload: 128,
		Clients: 16, Duration: window, Warmup: window / 4,
	})
	e.tb.Sim.Shutdown()
	return out
}

func runBreakdown(cfg Config) *Report {
	out := breakdownRun(cfg, true)
	rep := &Report{
		ID:      "breakdown",
		Title:   "Request latency decomposition (Lynx BlueField, 8 mqueues, 20us GPU echo)",
		Columns: []string{"mean", "p99", "share"},
	}
	prof := out.tb.Plane(0)
	spans := prof.Spans()
	e2e := spans.EndToEnd()
	var sum time.Duration
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		h := spans.PhaseHist(ph)
		sum += h.Mean()
		rep.AddRow(ph.String(), h.Mean(), h.P99(), fmtShare(h.Mean(), e2e.Mean()))
	}
	rep.AddRow("phase-sum", sum, "", fmtShare(sum, e2e.Mean()))
	rep.AddRow("end-to-end", e2e.Mean(), e2e.P99(), "100.0%")
	rep.Note("workload: %s", out.res.String())
	rep.Note("spans: begun=%d closed=%d evicted=%d (complete spans only enter the breakdown)",
		spans.Begun(), spans.Closed(), spans.Evicted())
	cfg.writeArtifacts(rep, out.tb, prof.Report())
	return rep
}

func fmtShare(part, whole time.Duration) string {
	if whole <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}
