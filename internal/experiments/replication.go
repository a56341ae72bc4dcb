// Replication sweep (ROADMAP item 1): the sharded, replicated KV rack from
// internal/cluster under a write-heavy workload, across node counts and
// replication factors, plus the paper-style fault experiment — a replica
// killed mid-run via the PR 1 fault plane, measuring failover latency and the
// goodput the rack sustains through the outage. Two scorecard claims gate the
// shape: the failover verdict lands within a small number of watchdog
// periods, and acknowledged-write goodput stays above a floor despite the
// kill.
package experiments

import (
	"fmt"
	"time"

	"lynx/internal/accel"
	"lynx/internal/apps/kvstore"
	"lynx/internal/check"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/profile"
	"lynx/internal/trace"
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

// replPoint is one sweep point's outcome.
type replPoint struct {
	res   workload.Result
	lag   time.Duration  // failover latency (kill points only)
	stats core.ReplStats // node 0's replication counters (RF > 1 only)
}

// replicationPoint stands up a rack of the given shape, drives a closed-loop
// SET workload against node 0's owned keys (so every write exercises the
// primary's replication path), and optionally kills node 1's accelerator
// mid-run through the fault plane.
func replicationPoint(cfg Config, nodes, rf int, kill bool, window time.Duration) replPoint {
	p := model.Default()
	ccfg := cluster.Config{
		Nodes:    nodes,
		Replicas: rf,
		Seed:     cfg.Seed + 1, // the experiment-harness testbed convention
		Params:   &p,
		Faults:   cfg.Faults,
	}
	warmup := window / 5
	if kill {
		window, warmup = replWindow, replWarmup
		ccfg.Faults = fault.Config{
			Seed:   cfg.Seed,
			Stalls: []fault.Stall{{Accel: "gpu1", Queue: -1, At: replKillAt, For: time.Hour}},
		}
	}
	var ck *check.Checker
	if cfg.Invariants.Enabled() {
		ck = check.New()
		ccfg.Check = ck
	}
	rack, err := cluster.Build(ccfg)
	if err != nil {
		panic(err)
	}
	if ck != nil {
		inv := cfg.Invariants
		rack.TB.Sim.OnShutdown(func() { inv.Add(ck.Finalize()) })
	}
	keys := rack.OwnedKeys(0)
	res := workload.RunFor(rack.TB.Sim, workload.New(rack.TB.Sim, workload.Config{
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
	}, rack.Clients...))
	out := replPoint{res: res}
	if repl := rack.Node(0).Repl; repl != nil {
		out.stats = repl.Stats()
		if kill {
			if slot, ok := rack.PeerSlot(0, 1); ok {
				out.lag = repl.ReplicationLag(slot, replKillAt)
			}
		}
	}
	rack.TB.Sim.Shutdown()
	return out
}

func replication(cfg Config) *Report {
	window := cfg.window(20 * time.Millisecond)
	r := &Report{
		ID:      "replication",
		Title:   "replicated KV rack: write goodput, tail latency, failover under replica kill",
		Columns: []string{"goodput", "req/s", "p99", "retries", "records", "failover"},
	}
	type shape struct {
		nodes, rf int
		kill      bool
	}
	shapes := []shape{
		{1, 1, false},
		{3, 1, false},
		{3, 2, false},
		{3, 3, false},
		{3, 3, true},
	}
	points := make([]replPoint, len(shapes))
	cfg.sweep(len(shapes), func(i int) {
		points[i] = replicationPoint(cfg, shapes[i].nodes, shapes[i].rf, shapes[i].kill, window)
	})
	for i, s := range shapes {
		pt := points[i]
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
	r.Note("not in the paper: the ROADMAP item 1 cluster extension (internal/cluster)")
	return r
}

// replicationFailover recomputes the kill point for the scorecard: failover
// latency in milliseconds and the acknowledged-write goodput sustained
// through the outage. Fixed windows (see replKillAt) keep the metric
// scale-independent.
func replicationFailover(cfg Config) (lagMs, goodput float64) {
	pt := replicationPoint(cfg, 3, 3, true, 0)
	return float64(pt.lag) / float64(time.Millisecond), pt.res.GoodputFraction()
}

// identityOutcome is one side of the RF=1 identity: the measured report and
// the node's observability plane with the timeline nodes and metrics
// registry its artifacts are rendered from.
type identityOutcome struct {
	rep   *Report
	prof  *profile.Profile
	nodes []trace.Export
	reg   *metrics.Registry
}

// replicationIdentity drives the identical write workload against either the
// 1-node RF=1 rack (viaRack) or the hand-built single-server KV deployment
// the rack claims operation-for-operation parity with, each carrying the
// full observability plane, and returns the measured report and the plane.
// The metamorphic golden test pins the report, the plane's event trace and
// its artifacts byte-for-byte: rack == single-server, and report and trace
// == the committed golden.
func replicationIdentity(cfg Config, viaRack bool) identityOutcome {
	window := cfg.window(20 * time.Millisecond)
	opts := profile.Options{TracerCap: 1 << 20}
	var out identityOutcome
	wcfg := workload.Config{
		Proto: workload.UDP, Payload: 64,
		Body: func(seq uint64, buf []byte) {
			copy(buf[workload.SeqBytes:],
				kvstore.EncodeSet(fmt.Sprintf("key-%03d", seq%512), 0, []byte("value-0123456789")))
		},
		Clients: 8, Duration: window, Warmup: window / 5,
		Timeout: 2 * time.Millisecond, Retries: 3,
	}
	var res workload.Result
	if viaRack {
		p := model.Default()
		rack, err := cluster.Build(cluster.Config{
			Nodes: 1, Replicas: 1, Seed: cfg.Seed + 1, Params: &p, Telemetry: &opts,
		})
		if err != nil {
			panic(err)
		}
		wcfg.Target = rack.Node(0).Addr()
		res = rack.Measure(wcfg)
		rack.Close()
		out.prof, out.nodes, out.reg = rack.Node(0).Prof, rack.TraceExport(), rack.TelemetrySnapshot()
	} else {
		e := newEnv(cfg)
		prof := profile.New(opts, e.check)
		rt := core.NewRuntime(prof.Platform(e.bf.Platform(7)))
		h, err := rt.Register(e.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 4)
		if err != nil {
			panic(err)
		}
		svc, err := rt.AddService(core.UDP, 7000, nil, 4, h)
		if err != nil {
			panic(err)
		}
		store := kvstore.NewStore(16, 0)
		for i := 0; i < 512; i++ {
			store.Set(fmt.Sprintf("key-%03d", i), 0, []byte("value-0123456789"))
		}
		qs := h.AccelQueues()
		opCost := e.params.MemcachedOpXeon
		if err := e.gpu.LaunchPersistent(e.tb.Sim, 4, func(tb *accel.TB) {
			aq := qs[tb.Index()]
			for {
				m := aq.Recv(tb.Proc())
				if len(m.Payload) < workload.SeqBytes {
					continue
				}
				tb.Compute(opCost)
				reply := store.ServeRaw(m.Payload[workload.SeqBytes:])
				out := make([]byte, workload.SeqBytes+len(reply))
				copy(out, m.Payload[:workload.SeqBytes])
				copy(out[workload.SeqBytes:], reply)
				if aq.Send(tb.Proc(), uint16(m.Slot), out) != nil {
					return
				}
			}
		}); err != nil {
			panic(err)
		}
		if err := rt.Start(); err != nil {
			panic(err)
		}
		prof.Monitor(rt)
		wcfg.Target = svc.Addr()
		wcfg.Spans = prof.Spans()
		res = workload.RunFor(e.tb.Sim, workload.New(e.tb.Sim, wcfg, e.clients...))
		e.tb.Sim.Shutdown()
		out.prof, out.nodes, out.reg = prof, []trace.Export{prof.Export("server1")}, prof.Registry()
	}
	out.rep = &Report{
		ID:      "replication-identity",
		Title:   "RF=1 single-node rack vs single-server deployment (metamorphic identity)",
		Columns: []string{"goodput", "req/s", "p99", "retries"},
	}
	out.rep.AddRow("RF=1",
		fmt.Sprintf("%.3f", res.GoodputFraction()),
		res.Throughput(), res.Hist.P99(), fmt.Sprint(res.Retries))
	return out
}
