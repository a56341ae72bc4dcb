package lynx_test

import (
	"fmt"
	"testing"
	"time"

	"lynx"
	"lynx/internal/workload"
)

// gpuEcho stands up the standard 4-queue GPU echo deployment on a cluster
// built with the given options.
func gpuEcho(t *testing.T, opts ...lynx.Option) (*lynx.Cluster, *lynx.Server, lynx.Addr, *lynx.Host) {
	t.Helper()
	cluster := lynx.NewCluster(opts...)
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")
	srv := cluster.NewServer(bf.Platform(7))
	h, err := srv.Register(gpu, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: 128}, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := srv.AddService(lynx.UDP, 7000, nil, 4, h)
	if err != nil {
		t.Fatal(err)
	}
	qs := h.AccelQueues()
	if err := gpu.LaunchPersistent(cluster.Testbed().Sim, 4, func(tb *lynx.TB) {
		q := qs[tb.Index()]
		for {
			m := q.Recv(tb.Proc())
			tb.Compute(20 * time.Microsecond)
			if q.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return cluster, srv, svc.Addr(), client
}

// Acceptance: with one GPU queue stalled for 100ms mid-run, the MQ-manager
// watchdog fails the queue over to the remaining three, retransmitting
// clients lose no requests, and the queue is restored once it drains.
func TestStallFailoverLosesNoRequests(t *testing.T) {
	cluster, srv, target, client := gpuEcho(t,
		lynx.WithSeed(3),
		lynx.WithFaults(lynx.FaultConfig{
			Stalls: []lynx.FaultStall{{Accel: "gpu0", Queue: 0, At: 5 * time.Millisecond, For: 100 * time.Millisecond}},
		}),
	)
	defer cluster.Close()
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: target, Payload: 64,
		Clients: 8, Duration: 150 * time.Millisecond, Warmup: time.Millisecond,
		Timeout: 2 * time.Millisecond, Retries: 3,
	}, client)
	st := srv.Stats()
	if cluster.FaultStats().StallHits == 0 {
		t.Fatal("the stall window never hit the accelerator")
	}
	if st.Failovers == 0 {
		t.Fatalf("watchdog never failed the stalled queue over: %s", st)
	}
	if st.Failbacks == 0 {
		t.Fatalf("stalled queue never restored after draining: %s", st)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d requests across a single-queue stall (stats: %s, workload: %s)",
			res.Lost, st, res)
	}
	if res.Retries == 0 {
		t.Fatal("clients never retransmitted — the stall was not felt")
	}
}

// Acceptance: at 1% datagram loss, retransmitting clients keep goodput at
// ≥90% of the zero-loss run.
func TestLossyGoodputStaysHigh(t *testing.T) {
	run := func(loss float64) lynx.LoadResult {
		opts := []lynx.Option{lynx.WithSeed(5)}
		if loss > 0 {
			opts = append(opts, lynx.WithFaults(lynx.FaultConfig{DropRate: loss}))
		}
		cluster, _, target, client := gpuEcho(t, opts...)
		defer cluster.Close()
		return cluster.MeasureLoad(lynx.LoadConfig{
			Proto: workload.UDP, Target: target, Payload: 64,
			Clients: 8, Duration: 20 * time.Millisecond, Warmup: 2 * time.Millisecond,
			Timeout: time.Millisecond, Retries: 3,
		}, client)
	}
	clean, lossy := run(0), run(0.01)
	if clean.GoodputFraction() < 0.99 {
		t.Fatalf("zero-loss run already losing requests: %s", clean)
	}
	if g := lossy.GoodputFraction(); g < 0.9*clean.GoodputFraction() {
		t.Fatalf("goodput %.3f under 1%% loss, want ≥90%% of clean %.3f", g, clean.GoodputFraction())
	}
	if lossy.Retries == 0 {
		t.Fatal("no retransmits at 1% loss — faults not injected?")
	}
}

// Two clusters built with the same seed and the same fault plan must produce
// byte-identical statistics — the fault plane draws from its own seeded
// stream and perturbs nothing else.
func TestFaultPlanDeterminism(t *testing.T) {
	run := func() string {
		cluster, srv, target, client := gpuEcho(t,
			lynx.WithSeed(42),
			lynx.WithFaults(lynx.FaultConfig{
				Seed: 42, DropRate: 0.02, DupRate: 0.01, RDMAErrRate: 0.005,
				Stalls: []lynx.FaultStall{{Accel: "gpu0", Queue: 1, At: 3 * time.Millisecond, For: 10 * time.Millisecond}},
			}),
		)
		defer cluster.Close()
		res := cluster.MeasureLoad(lynx.LoadConfig{
			Proto: workload.UDP, Target: target, Payload: 64,
			Clients: 8, Duration: 20 * time.Millisecond, Warmup: time.Millisecond,
			Timeout: time.Millisecond, Retries: 2,
		}, client)
		return fmt.Sprintf("%s | %s | sent=%d rcvd=%d lost=%d retries=%d p50=%v p99=%v",
			srv.Stats(), cluster.FaultStats(),
			res.Sent, res.Received, res.Lost, res.Retries, res.Hist.Median(), res.Hist.P99())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic under faults:\n  %s\n  %s", a, b)
	}
}

// The hot path (UDP receive workers and MQ-manager sweeps) runs on the
// scheduler's run-to-completion task substrate; this drives it under armed
// runtime invariants AND fault injection at once, proving the checkers'
// conservation ledgers (request conservation, ring bounds, span telescoping)
// hold when the stages execute as inline continuations rather than
// coroutines. RDMAErrRate is armed too: go-back-N retries reorder header
// snapshots relative to CQE delivery, which used to trip the mqueue
// header-monotonicity check as a false positive; absorbHeader now orders
// snapshots by wire time (CQE.At) and drops stale ones, so this run doubles
// as the regression test for that fix.
func TestInvariantsHoldOnTaskSubstrateUnderFaults(t *testing.T) {
	cluster, srv, target, client := gpuEcho(t,
		lynx.WithSeed(11),
		lynx.WithInvariants(),
		lynx.WithFaults(lynx.FaultConfig{
			Seed: 11, DropRate: 0.02, RDMAErrRate: 0.005,
		}),
	)
	defer cluster.Close()
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: target, Payload: 64,
		Clients: 8, Duration: 20 * time.Millisecond, Warmup: time.Millisecond,
		Timeout: time.Millisecond, Retries: 3,
	}, client)
	if res.Received == 0 {
		t.Fatal("no traffic flowed")
	}
	if srv.Stats().Received == 0 {
		t.Fatal("task-hosted dispatch path never ran")
	}
	cluster.Close()
	if rep := cluster.InvariantReport(); !rep.OK() {
		t.Fatalf("invariant violations on the task substrate under faults:\n%s", rep)
	} else if rep.Finishers == 0 {
		t.Fatal("no invariant finishers ran — WithInvariants not wired")
	}
}
