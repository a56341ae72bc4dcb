package lynx_test

import (
	"fmt"
	"testing"
	"time"

	"lynx"
	"lynx/internal/workload"
)

// batchEchoRun builds the canonical echo deployment with the given extra
// options, drives it, and returns a fingerprint of everything observable:
// workload counters, latency percentiles, and the server's runtime stats.
func batchEchoRun(extra ...lynx.Option) string {
	opts := append([]lynx.Option{lynx.WithSeed(99)}, extra...)
	cluster := lynx.NewCluster(opts...)
	defer cluster.Close()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")
	srv := cluster.NewServer(bf.Platform(7))
	// 8 queues at a 5us kernel produce TX completions faster than the MQ
	// manager's sweep, so drain runs longer than one message actually form.
	h, _ := srv.Register(gpu, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: 128}, 8)
	svc, _ := srv.AddService(lynx.UDP, 7000, nil, 8, h)
	qs := h.AccelQueues()
	gpu.LaunchPersistent(cluster.Testbed().Sim, 8, func(tb *lynx.TB) {
		q := qs[tb.Index()]
		for {
			m := q.Recv(tb.Proc())
			tb.Compute(5 * time.Microsecond)
			if q.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	})
	srv.Start()
	// Enough concurrent clients that dispatch bursts actually form; a lighter
	// load degenerates every batch to runs of one message.
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: svc.Addr(), Payload: 64,
		Clients: 32, Duration: 5 * time.Millisecond, Warmup: time.Millisecond,
	}, client)
	return fmt.Sprintf("%d/%d/%v/%v/%v",
		res.Sent, res.Received, res.Hist.Median(), res.Hist.P99(), srv.Stats())
}

// The explicit all-ones batching configuration must be semantically invisible:
// a run with WithBatching(batch size 1 everywhere) is byte-identical to a run
// with no batching option at all — same virtual-time results, same stats.
func TestWithBatchingUnitByteIdentical(t *testing.T) {
	plain := batchEchoRun()
	unit := batchEchoRun(lynx.WithBatching(lynx.BatchConfig{Doorbell: 1, CQDrain: 1, Quantum: 1}))
	if plain != unit {
		t.Fatalf("unit batching changed observable results:\n  plain: %s\n  unit:  %s", plain, unit)
	}
}

// Batched runs must stay deterministic (same seed, same config, same bytes)
// and actually deliver the workload.
func TestWithBatchingDeterministicAndLive(t *testing.T) {
	a := batchEchoRun(lynx.WithBatching(lynx.DefaultBatchConfig()))
	b := batchEchoRun(lynx.WithBatching(lynx.DefaultBatchConfig()))
	if a != b {
		t.Fatalf("batched run nondeterministic:\n  %s\n  %s", a, b)
	}
	if a == batchEchoRun() {
		t.Fatal("default batching produced bit-identical results to unbatched — batched paths likely never ran")
	}
}

// A batched run with runtime invariants armed and the profiling plane active
// must finish with zero violations and a coherent profile.
func TestWithBatchingInvariantsClean(t *testing.T) {
	cluster := lynx.NewCluster(
		lynx.WithSeed(5),
		lynx.WithBatching(lynx.BatchConfig{Doorbell: 4, CQDrain: 8, Quantum: 4}),
		lynx.WithInvariants(),
		lynx.WithProfile(),
	)
	defer cluster.Close()
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
	gpu.LaunchPersistent(cluster.Testbed().Sim, 4, func(tb *lynx.TB) {
		q := qs[tb.Index()]
		for {
			m := q.Recv(tb.Proc())
			tb.Compute(20 * time.Microsecond)
			if q.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: svc.Addr(), Payload: 64,
		Clients: 8, Duration: 10 * time.Millisecond, Warmup: time.Millisecond,
	}, client)
	if res.Received < 100 {
		t.Fatalf("batched deployment answered only %d requests", res.Received)
	}
	if rep := cluster.InvariantReport(); !rep.OK() {
		t.Fatalf("invariant violations under batching:\n%v", rep)
	}
	prof := cluster.ProfileReport()
	if prof.SpansClosed == 0 {
		t.Fatal("profiling plane recorded no closed spans under batching")
	}
}

// WithBatching must reject invalid configurations at cluster construction.
func TestWithBatchingInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster accepted a negative doorbell batch size")
		}
	}()
	lynx.NewCluster(lynx.WithBatching(lynx.BatchConfig{Doorbell: -2, CQDrain: 1, Quantum: 1}))
}
