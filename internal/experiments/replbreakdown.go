// Replication breakdown: the rack-scope observability experiment. An RF=3
// rack is built with the per-node telemetry plane armed; a write-heavy
// workload drives node 0's owned keys so every request crosses the primary's
// quorum path, and the primary's span table decomposes each write into the
// six telescoping phases — network, SNIC, transfer, queueing, exec and the
// replication (quorum-wait) phase carved out of the SNIC hold between drain
// and forward. The report adds the per-peer straggler ranking: which
// replica's ack gated quorum, how often, and by what margin. The telescope
// error row (|phase-sum − end-to-end| / end-to-end) is also a scorecard
// claim, so a regression that un-telescopes the quorum wait fails the gate.
package experiments

import (
	"fmt"
	"time"

	"lynx/internal/apps/kvstore"
	"lynx/internal/cluster"
	"lynx/internal/profile"
	"lynx/internal/trace"
	"lynx/internal/workload"
)

func init() {
	register("replbreakdown",
		"RF=3 write-path latency decomposition: quorum-wait phase, per-peer straggler ranking (cluster extension)",
		runReplBreakdown)
}

// replBreakdownOutcome bundles one instrumented RF=3 rack run.
type replBreakdownOutcome struct {
	res   workload.Result
	node0 *profile.Profile   // the measured primary's plane (repl/* series live here)
	peers []profile.ReplPeer // straggler ranking, gating-count order
	prof  *profile.Report    // node 0 attribution report, replication section set
	rack  *cluster.Rack      // closed by the time the outcome returns
}

// replBreakdownRun stands the instrumented rack up, drives it, and tears it
// down. Every write targets a node-0-owned key, so node 0's span table sees
// complete spans (client stamps default into it via Rack.Measure) and node
// 0's replicator drives every quorum.
func replBreakdownRun(cfg Config) replBreakdownOutcome {
	rack := cfg.rack(cluster.Config{Nodes: 3, Replicas: 3, Telemetry: &cluster.Telemetry{}})
	window := cfg.window(20 * time.Millisecond)
	keys := rack.OwnedKeys(0)
	res := rack.Measure(workload.Config{
		Proto: workload.UDP, Target: rack.Node(0).Addr(), Payload: 64,
		Body: func(seq uint64, buf []byte) {
			kvstore.AppendSet(buf[:workload.SeqBytes], keys[seq%uint64(len(keys))], 0, []byte("value-0123456789"))
		},
		Clients: 8, Duration: window, Warmup: window / 5,
		Timeout: 2 * time.Millisecond, Retries: 3,
	})
	node0 := rack.Node(0).Prof
	out := replBreakdownOutcome{res: res, node0: node0, rack: rack}
	if repl := rack.Node(0).Repl; repl != nil {
		for i := 0; i < repl.PeerCount(); i++ {
			st := repl.PeerStat(i)
			out.peers = append(out.peers,
				profile.NewReplPeer(st.Name, st.Acks, st.GatedQuorums, st.AckLatency, st.GatingMargin))
		}
	}
	rack.Close()
	out.prof = node0.Report()
	out.prof.SetReplication(out.peers)
	return out
}

// telescopeError is the relative error between the sum of per-phase means
// and the end-to-end mean over node 0's closed spans — ~0 by construction
// (the phases telescope span by span; only integer-mean truncation remains),
// so a nonzero value means a phase was double-counted or lost.
func telescopeError(spans *trace.SpanTable) float64 {
	e2e := float64(spans.EndToEnd().Mean())
	if e2e <= 0 {
		return 0
	}
	var sum float64
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		sum += float64(spans.PhaseHist(ph).Mean())
	}
	err := (sum - e2e) / e2e
	if err < 0 {
		err = -err
	}
	return err
}

func runReplBreakdown(cfg Config) *Report {
	out := replBreakdownRun(cfg)
	rep := &Report{
		ID:      "replbreakdown",
		Title:   "Replicated write decomposition (3 nodes, RF=3, quorum over one-sided RDMA)",
		Columns: []string{"mean", "p99", "wait", "share"},
	}
	spans := out.node0.Spans()
	e2e := spans.EndToEnd()
	var sum time.Duration
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		h := spans.PhaseHist(ph)
		sum += h.Mean()
		rep.AddRow(ph.String(), h.Mean(), h.P99(),
			spans.PhaseWaitHist(ph).Mean(), fmtShare(h.Mean(), e2e.Mean()))
	}
	rep.AddRow("phase-sum", sum, "", "", fmtShare(sum, e2e.Mean()))
	rep.AddRow("end-to-end", e2e.Mean(), e2e.P99(), "", "100.0%")
	rep.AddRow("telescope-err", fmt.Sprintf("%.4f%%", 100*telescopeError(spans)))
	var gatedTotal uint64
	for _, pr := range out.peers {
		gatedTotal += pr.GatedQuorums
	}
	for _, pr := range out.peers {
		rep.AddRow("peer "+pr.Peer,
			time.Duration(pr.AckLatency.MeanNs), time.Duration(pr.AckLatency.P99Ns),
			time.Duration(pr.GatingMargin.P99Ns),
			fmtShare(time.Duration(pr.GatedQuorums), time.Duration(gatedTotal)))
	}
	rep.Note("peer rows rank stragglers: mean/p99 of dispatch→ack latency, wait = p99 of the gating margin (quorum-completing ack minus the previous ack), share = fraction of parked quorums this peer's ack completed")
	rep.Note("replication phase = quorum hold carved out of the SNIC phase (drain→quorum); zero for writes whose quorum completed before the response drained")
	rep.Note("workload: %s (all writes target node 0's owned keys)", out.res.String())
	rep.Note("spans: begun=%d closed=%d evicted=%d", spans.Begun(), spans.Closed(), spans.Evicted())
	if k := profile.PredictKnee(out.node0.Registry(), out.res.Throughput()); k.Valid || k.Reason != "" {
		rep.Note("primary knee: %s", k.String())
	}
	cfg.writeArtifacts(rep, out.rack.TraceExport(), out.rack.TelemetrySnapshot(), out.prof)
	return rep
}

// replTelescope is the RF=3 breakdown rack reduced to its telescope error.
type replTelescope struct{}

func (replTelescope) run(cfg Config) float64 {
	return telescopeError(replBreakdownRun(cfg).node0.Spans())
}
