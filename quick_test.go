package lynx_test

// Seeded config fuzzing: a quickcheck-style harness that draws
// random-but-reproducible NewCluster option vectors and deployment shapes,
// runs a short simulation under WithInvariants, and checks metamorphic
// properties no particular configuration should violate:
//
//   - every runtime invariant holds (conservation, ring bounds, clock);
//   - perturbing only the seed moves the saturated throughput headline
//     by less than a few percent;
//   - doubling the mqueue count never loses meaningful throughput;
//   - injecting datagram loss never increases goodput.
//
// Every draw derives from a fixed seed, so a failure reproduces exactly;
// the failing draw's shape is logged for replay.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lynx"
	"lynx/internal/workload"
)

// quickDraws is how many random deployments the harness exercises.
const quickDraws = 8

// quickConfig is one randomly drawn deployment shape.
type quickConfig struct {
	Seed     uint64
	OnBF     bool // Lynx on BlueField vs on host Xeon cores
	Cores    int  // dispatcher cores on the chosen platform
	NQueues  int
	Slots    int
	SlotSize int
	Payload  int
	Clients  int
	Compute  time.Duration
	DropRate float64 // for the loss property run only
}

// drawQuick derives a deployment shape from a seeded stream.
func drawQuick(r *rand.Rand, seed uint64) quickConfig {
	slotSize := []int{256, 512, 1100}[r.Intn(3)]
	return quickConfig{
		Seed:     seed,
		OnBF:     r.Intn(2) == 0,
		Cores:    2 + r.Intn(5),
		NQueues:  1 << r.Intn(4), // 1, 2, 4, 8
		Slots:    8 << r.Intn(2), // 8, 16
		SlotSize: slotSize,
		Payload:  16 + r.Intn(slotSize/4),
		Clients:  4 + r.Intn(5),
		Compute:  time.Duration(5+r.Intn(35)) * time.Microsecond,
		DropRate: 0.01 + r.Float64()*0.04,
	}
}

// runQuick stands up the drawn deployment under WithInvariants, saturates it
// with a closed-loop workload, and returns the load result and the invariant
// report (finishers included: the cluster is Closed before reporting).
func runQuick(t *testing.T, qc quickConfig, extra ...lynx.Option) (lynx.LoadResult, lynx.InvariantReport) {
	t.Helper()
	opts := append([]lynx.Option{lynx.WithSeed(qc.Seed), lynx.WithInvariants()}, extra...)
	cluster := lynx.NewCluster(opts...)
	defer cluster.Close()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")

	plat := server.HostPlatform(qc.Cores, true)
	if qc.OnBF {
		plat = bf.Platform(qc.Cores)
	}
	srv := cluster.NewServer(plat)
	h, err := srv.Register(gpu, lynx.QueueConfig{
		Kind: lynx.ServerQueue, Slots: qc.Slots, SlotSize: qc.SlotSize,
	}, qc.NQueues)
	if err != nil {
		t.Fatalf("%+v: %v", qc, err)
	}
	svc, err := srv.AddService(lynx.UDP, 7000, nil, qc.NQueues, h)
	if err != nil {
		t.Fatalf("%+v: %v", qc, err)
	}
	qs := h.AccelQueues()
	if err := gpu.LaunchPersistent(cluster.Testbed().Sim, qc.NQueues, func(tb *lynx.TB) {
		q := qs[tb.Index()]
		for {
			m := q.Recv(tb.Proc())
			tb.Compute(qc.Compute)
			if q.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	}); err != nil {
		t.Fatalf("%+v: %v", qc, err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("%+v: %v", qc, err)
	}
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: svc.Addr(), Payload: qc.Payload,
		Clients: qc.Clients, Duration: 10 * time.Millisecond, Warmup: 2 * time.Millisecond,
		Timeout: 5 * time.Millisecond,
	}, client)
	cluster.Close()
	return res, cluster.InvariantReport()
}

// TestQuickConfigs is the seeded config-fuzzing harness.
func TestQuickConfigs(t *testing.T) {
	for i := 0; i < quickDraws; i++ {
		i := i
		t.Run(fmt.Sprintf("draw%02d", i), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(0xC0FFEE + i)))
			qc := drawQuick(r, uint64(1000+i))
			t.Logf("shape: %+v", qc)

			base, rep := runQuick(t, qc)
			if !rep.OK() {
				t.Fatalf("invariants violated for %+v:\n%s", qc, rep)
			}
			if rep.Finishers == 0 {
				t.Fatalf("no invariant finishers ran — WithInvariants not wired")
			}
			if base.Received == 0 {
				t.Fatalf("no responses for %+v", qc)
			}

			// Property: the throughput headline is a property of the shape,
			// not of the seed. Perturbing only the seed moves it <5%.
			perturbed := qc
			perturbed.Seed = qc.Seed + 1
			alt, rep2 := runQuick(t, perturbed)
			if !rep2.OK() {
				t.Fatalf("invariants violated after seed perturbation:\n%s", rep2)
			}
			if d := relDiff(base.Throughput(), alt.Throughput()); d > 0.05 {
				t.Errorf("seed %d -> %d moved throughput %.1f%% (%.0f vs %.0f req/s)",
					qc.Seed, perturbed.Seed, d*100, base.Throughput(), alt.Throughput())
			}

			// Property: more parallelism never costs meaningful throughput.
			wider := qc
			wider.NQueues *= 2
			wide, rep3 := runQuick(t, wider)
			if !rep3.OK() {
				t.Fatalf("invariants violated at %d mqueues:\n%s", wider.NQueues, rep3)
			}
			if wide.Throughput() < 0.95*base.Throughput() {
				t.Errorf("%d->%d mqueues dropped throughput %.0f -> %.0f req/s",
					qc.NQueues, wider.NQueues, base.Throughput(), wide.Throughput())
			}

			// Property: injected datagram loss never increases goodput.
			lossy, rep4 := runQuick(t, qc, lynx.WithFaults(lynx.FaultConfig{
				Seed: qc.Seed, DropRate: qc.DropRate,
			}))
			if !rep4.OK() {
				t.Fatalf("invariants violated under %.1f%% loss:\n%s", qc.DropRate*100, rep4)
			}
			if float64(lossy.Received) > 1.02*float64(base.Received) {
				t.Errorf("%.1f%% loss increased goodput: %d -> %d responses",
					qc.DropRate*100, base.Received, lossy.Received)
			}
		})
	}
}

// TestInvariantsPublicAPI exercises WithInvariants/InvariantReport end to
// end: a healthy run reports OK with finishers evaluated, and the report is
// empty-and-passing without the option.
func TestInvariantsPublicAPI(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	qc := drawQuick(r, 7)
	_, rep := runQuick(t, qc)
	if !rep.OK() {
		t.Fatalf("healthy run reported violations:\n%s", rep)
	}
	if rep.Finishers == 0 {
		t.Fatalf("invariant machinery idle: %+v", rep)
	}

	cluster := lynx.NewCluster() // no WithInvariants
	defer cluster.Close()
	if rep := cluster.InvariantReport(); !rep.OK() || rep.Finishers != 0 {
		t.Fatalf("unchecked cluster should report empty-and-passing, got %+v", rep)
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	hi := a
	if b > hi {
		hi = b
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / hi
}
