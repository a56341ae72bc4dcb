package lynx_test

import (
	"fmt"
	"testing"
	"time"

	"lynx"
	"lynx/internal/workload"
)

// TestPublicAPIEndToEnd drives the whole public surface: cluster building,
// server registration, accelerator-side code, load generation.
func TestPublicAPIEndToEnd(t *testing.T) {
	cluster := lynx.NewCluster(lynx.WithSeed(7))
	defer cluster.Close()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")

	srv := cluster.NewServer(bf.Platform(7))
	h, err := srv.Register(gpu, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: 128}, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := srv.AddService(lynx.UDP, 7000, nil, 2, h)
	if err != nil {
		t.Fatal(err)
	}
	qs := h.AccelQueues()
	if err := gpu.LaunchPersistent(cluster.Testbed().Sim, 2, func(tb *lynx.TB) {
		q := qs[tb.Index()]
		for {
			m := q.Recv(tb.Proc())
			tb.Compute(15 * time.Microsecond)
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
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: svc.Addr(), Payload: 64,
		Clients: 4, Duration: 10 * time.Millisecond, Warmup: time.Millisecond,
	}, client)
	if res.Received < 100 {
		t.Fatalf("only %d responses through the public API", res.Received)
	}
	if res.Hist.Median() < 20*time.Microsecond || res.Hist.Median() > 500*time.Microsecond {
		t.Fatalf("median latency %v implausible", res.Hist.Median())
	}
	st := srv.Stats()
	if st.Received == 0 || st.Responded == 0 {
		t.Fatal("server stats empty")
	}
}

func TestDefaultParamsCopy(t *testing.T) {
	p := lynx.DefaultParams()
	p.KernelLaunch = time.Hour
	if lynx.DefaultParams().KernelLaunch == time.Hour {
		t.Fatal("DefaultParams must return a copy")
	}
}

func TestClusterClockControls(t *testing.T) {
	cluster := lynx.NewCluster()
	defer cluster.Close()
	fired := false
	cluster.After(5*time.Millisecond, func() { fired = true })
	cluster.Run(time.Millisecond)
	if fired {
		t.Fatal("timer fired early")
	}
	if cluster.Now() != time.Millisecond {
		t.Fatalf("clock at %v", cluster.Now())
	}
	cluster.Run(10 * time.Millisecond)
	if !fired {
		t.Fatal("timer never fired")
	}
	hit := false
	cluster.Spawn("x", func(p *lynx.Proc) {
		p.Sleep(2 * time.Millisecond)
		hit = true
	})
	cluster.RunUntil(time.Second, func() bool { return hit })
	if !hit {
		t.Fatal("RunUntil did not reach the condition")
	}
}

// Determinism across the public API: identical seeds give identical results.
func TestDeterminism(t *testing.T) {
	run := func() string {
		cluster := lynx.NewCluster(lynx.WithSeed(99))
		defer cluster.Close()
		server := cluster.NewMachine("server1", 6)
		bf := server.AttachBlueField("bf1")
		gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
		client := cluster.AddClient("client1")
		srv := cluster.NewServer(bf.Platform(7))
		h, _ := srv.Register(gpu, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: 128}, 4)
		svc, _ := srv.AddService(lynx.UDP, 7000, nil, 4, h)
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
		srv.Start()
		res := cluster.MeasureLoad(lynx.LoadConfig{
			Proto: workload.UDP, Target: svc.Addr(), Payload: 64,
			Clients: 8, Duration: 5 * time.Millisecond, Warmup: time.Millisecond,
		}, client)
		return fmt.Sprintf("%d/%d/%v/%v", res.Sent, res.Received, res.Hist.Median(), res.Hist.P99())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %s vs %s", a, b)
	}
}
