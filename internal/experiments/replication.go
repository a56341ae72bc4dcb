// Replication sweep: the sharded, replicated KV rack from internal/cluster
// (an extension beyond the paper) under a write-heavy workload, across node
// counts and replication factors, plus the paper-style fault experiment — a
// replica killed mid-run via the fault plane, measuring failover latency and
// the goodput the rack sustains through the outage. Every point is built by
// Config.rack and measured by Rack.Measure, so under -invariants its client
// ledger joins the rack's checks. Two scorecard claims gate the shape: the
// failover verdict lands within a small number of watchdog periods, and
// acknowledged-write goodput stays above a floor despite the kill.
package experiments

import (
	"fmt"
	"time"

	"lynx/internal/apps/kvstore"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/workload"
)

func init() {
	register("replication",
		"replicated KV rack: goodput & p99 across nodes/RF, failover under a mid-run replica kill (cluster extension)",
		replication)
}

// replKillAt / replWindow fix the fault experiment's timeline in absolute
// virtual time: the MQ watchdog timeout (5ms) does not scale with
// Config.Scale, so the kill point and measurement window must not either —
// otherwise small-scale test runs would end before the failover verdict.
const (
	replKillAt = 8 * time.Millisecond
	replWarmup = 2 * time.Millisecond
	replWindow = 22 * time.Millisecond
)

// replResult is one replication point's outcome.
type replResult struct {
	res   workload.Result
	lag   time.Duration  // failover latency (kill points only)
	stats core.ReplStats // node 0's replication counters (RF > 1 only)
}

// Clone returns a copy of r with its own histogram.
func (r replResult) Clone() replResult {
	r.res = r.res.Clone()
	return r
}

// replicationPoint stands up a rack of the given shape, drives a closed-loop
// SET workload against node 0's owned keys (so every write exercises the
// primary's replication path), and optionally kills node 1's accelerator
// mid-run through the fault plane.
type replicationPoint struct {
	nodes, rf int
	kill      bool
}

func (pt replicationPoint) run(cfg Config) replResult {
	window := cfg.window(20 * time.Millisecond)
	warmup := window / 5
	if pt.kill {
		window, warmup = replWindow, replWarmup
		cfg.Faults = fault.Config{
			Seed:   cfg.Seed,
			Stalls: []fault.Stall{{Accel: "gpu1", Queue: -1, At: replKillAt, For: time.Hour}},
		}
	}
	rack := cfg.rack(cluster.Config{Nodes: pt.nodes, Replicas: pt.rf})
	keys := rack.OwnedKeys(0)
	res := rack.Measure(workload.Config{
		Proto: workload.UDP, Target: rack.Node(0).Addr(), Payload: 64,
		Body: func(seq uint64, buf []byte) {
			copy(buf[workload.SeqBytes:],
				kvstore.EncodeSet(keys[seq%uint64(len(keys))], 0, []byte("value-0123456789")))
		},
		Clients: 8, Duration: window, Warmup: warmup,
		// Outage-aware clients: a write parked behind a dying replica is
		// retransmitted with exponential backoff until the failover verdict
		// releases it (2+4+8ms of patience spans the watchdog period).
		Timeout: 2 * time.Millisecond, Retries: 3,
	})
	out := replResult{res: res}
	if repl := rack.Node(0).Repl; repl != nil {
		out.stats = repl.Stats()
		if pt.kill {
			if slot, ok := rack.PeerSlot(0, 1); ok {
				out.lag = repl.ReplicationLag(slot, replKillAt)
			}
		}
	}
	rack.Close()
	return out
}

func replication(cfg Config) *Report {
	r := &Report{
		ID:      "replication",
		Title:   "replicated KV rack: write goodput, tail latency, failover under replica kill",
		Columns: []string{"goodput", "req/s", "p99", "retries", "records", "failover"},
	}
	shapes := []replicationPoint{
		{1, 1, false},
		{3, 1, false},
		{3, 2, false},
		{3, 3, false},
		{3, 3, true},
	}
	points := measureAll(cfg, shapes)
	for _, s := range shapes {
		pt := points[s]
		name := fmt.Sprintf("%d nodes RF=%d", s.nodes, s.rf)
		failover := "-"
		if s.kill {
			name += " + replica kill"
			failover = pt.lag.Round(100 * time.Nanosecond).String()
		}
		r.AddRow(name,
			fmt.Sprintf("%.3f", pt.res.GoodputFraction()),
			pt.res.Throughput(), pt.res.Hist.P99(), fmt.Sprint(pt.res.Retries),
			fmt.Sprint(pt.stats.Records), failover)
	}
	r.Note("writes target node 0's owned keys; RF>1 rows replicate each write to RF-1 peer accelerators over one-sided RDMA before the response releases")
	r.Note("kill row: gpu1 frozen at t=%v via the fault plane; failover = verdict latency relative to the kill", replKillAt)
	r.Note("not in the paper: the replicated-rack extension (internal/cluster)")
	return r
}
