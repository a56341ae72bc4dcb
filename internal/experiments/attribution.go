// The attribution experiment: drive the Lynx BlueField deployment to its
// dispatcher saturation point (the knee of the paper's Fig. 9 throughput
// curve) and attribute the tail. Output is the wait/service decomposition of
// every pipeline phase plus the ranked bottleneck report; the scorecard
// asserts the dispatcher comes out on top, matching the paper's finding that
// the BlueField's wimpy cores — not the GPU — limit Lynx throughput.
package experiments

import (
	"time"

	"lynx/internal/profile"
	"lynx/internal/snic"
	"lynx/internal/trace"
	"lynx/internal/workload"
)

func init() {
	register("attribution", "tail-latency attribution: wait/service split and bottleneck ranking at BlueField saturation", runAttribution)
}

// attributionOutcome bundles one attribution run.
type attributionOutcome struct {
	res    workload.Result
	tb     *snic.Testbed // shut down
	prof   *profile.Profile
	report *profile.Report
}

// attributionRun saturates the BlueField dispatcher: 32 server mqueues keep
// the GPU far from its limit (32 blocks x 20us echo = 1.6M req/s of
// accelerator capacity), while 256 closed-loop clients push well past the
// wimpy SNIC cores' dispatch capacity. At that operating point the waits
// pile up in front of the dispatcher, which the ranking must surface.
func attributionRun(cfg Config) attributionOutcome {
	e := newEnv(cfg)
	out := attributionOutcome{tb: e.tb, prof: e.arm(1 << 15)}
	addr, rt := e.echoDeployment(e.lynxPlatform(platLynxBF), 32, 20*time.Microsecond, 256)
	e.observe(rt)
	window := e.cfg.window(20 * time.Millisecond)
	out.res = e.measure(workload.Config{
		Proto: workload.UDP, Target: addr, Payload: 128,
		Clients: 256, Duration: window, Warmup: window / 4,
		Timeout: 500 * time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	out.report = out.prof.Report()
	return out
}

func runAttribution(cfg Config) *Report {
	out := attributionRun(cfg)
	rep := &Report{
		ID:      "attribution",
		Title:   "Tail-latency attribution (Lynx BlueField at dispatcher saturation, 32 mqueues, 20us GPU echo)",
		Columns: []string{"wait-mean", "wait-p99", "svc-mean", "svc-p99", "wait-share"},
	}
	spans := out.prof.Spans()
	for p := trace.PhaseNetwork; p < trace.NumPhases; p++ {
		w := spans.PhaseWaitHist(p)
		s := spans.PhaseServiceHist(p)
		ph := spans.PhaseHist(p)
		rep.AddRow(p.String(), w.Mean(), w.P99(), s.Mean(), s.P99(),
			fmtShare(w.Sum(), ph.Sum()))
	}
	e2e := spans.EndToEnd()
	rep.AddRow("end-to-end", "", e2e.P99(), "", "", "")
	for i, b := range out.report.Bottlenecks {
		rep.Note("bottleneck #%d %s", i+1, b)
	}
	rep.Note("workload: %s", out.res.String())
	rep.Note("flight recorder: %d spans observed, top-%d retained",
		out.prof.Recorder().Observed(), out.prof.Recorder().TopK())
	cfg.writeArtifacts(rep, out.tb, out.report)
	return rep
}

// attributionPoint is the Fig. 9 saturation point reduced to the scalars the
// scorecard and the sentinel read; it never writes artifacts.
type attributionPoint struct{}

// attributionScalars are the dispatcher's 1-based rank in the bottleneck
// report (0 when absent) and the measured throughput.
type attributionScalars struct{ rank, throughput float64 }

func (attributionPoint) run(cfg Config) attributionScalars {
	cfg.Obs = ""
	out := attributionRun(cfg)
	return attributionScalars{float64(out.report.Rank("dispatcher")), out.res.Throughput()}
}
