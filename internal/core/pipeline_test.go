package core_test

import (
	"fmt"
	"testing"
	"time"

	"lynx/internal/accel"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/snic"
	"lynx/internal/workload"
)

// startStageTBs launches persistent threadblocks for one pipeline stage:
// each appends its tag to the payload.
func startStageTBs(t *testing.T, b *bed, gpu *accel.GPU, h *core.AccelHandle, first, count int, tag byte, work time.Duration) {
	t.Helper()
	qs := h.AccelQueues()
	if err := gpu.LaunchPersistent(b.tb.Sim, count, func(tb *accel.TB) {
		aq := qs[first+tb.Index()%count]
		for {
			m := aq.Recv(tb.Proc())
			if work > 0 {
				tb.Compute(work)
			}
			out := append(append([]byte{}, m.Payload...), tag)
			if aq.Send(tb.Proc(), uint16(m.Slot), out) != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A two-stage pipeline across two GPUs: requests traverse both accelerators
// and return transformed, with no application code on the SNIC.
func TestPipelineTwoGPUs(t *testing.T) {
	b := newBed(t, 21)
	gpu2 := b.server.AddGPU("gpu1", accel.K40m, false, "server1")
	rt := core.NewRuntime(b.bf.Platform(7))
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
	h1, err := rt.Register(b.gpu, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := rt.Register(gpu2, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := rt.AddPipeline(core.UDP, 7000, nil, 2, h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stages() != 2 {
		t.Fatalf("stages = %d", pl.Stages())
	}
	startStageTBs(t, b, b.gpu, h1, 0, 2, 'A', 10*time.Microsecond)
	startStageTBs(t, b, gpu2, h2, 0, 2, 'B', 10*time.Microsecond)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	const n = 60
	got := 0
	hist := metrics.NewHistogram()
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			start := p.Now()
			cli.SendTo(pl.Addr(), []byte(fmt.Sprintf("r%02d", i)))
			dg := cli.Recv(p)
			hist.Record(p.Now().Sub(start))
			want := fmt.Sprintf("r%02dAB", i)
			if string(dg.Payload) != want {
				t.Errorf("reply %d = %q, want %q", i, dg.Payload, want)
			}
			got++
		}
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return got == n })
	b.tb.Sim.Shutdown()
	if got != n {
		t.Fatalf("completed %d/%d pipeline round trips", got, n)
	}
	if pl.Relayed() != n {
		t.Fatalf("relayed = %d, want %d (one relay per request)", pl.Relayed(), n)
	}
	st := rt.Stats()
	if st.Received != n || st.Responded != n || st.Dropped() != 0 {
		t.Fatalf("stats rcv=%d resp=%d drop=%d", st.Received, st.Responded, st.Dropped())
	}
}

// Stage-to-stage relays skip the network stack, so a pipeline hop must be
// much cheaper than going back out to a client and in again.
func TestPipelineHopCheaperThanNetworkBounce(t *testing.T) {
	// Pipelined: client -> stage0 -> stage1 -> client.
	pipelined := func() time.Duration {
		b := newBed(t, 22)
		rt := core.NewRuntime(b.bf.Platform(7))
		cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
		h, _ := rt.Register(b.gpu, cfg, 2)
		pl, err := rt.AddPipeline(core.UDP, 7000, nil, 1, h, h)
		if err != nil {
			t.Fatal(err)
		}
		qs := h.AccelQueues()
		b.gpu.LaunchPersistent(b.tb.Sim, 2, func(tb *accel.TB) {
			aq := qs[tb.Index()]
			for {
				m := aq.Recv(tb.Proc())
				if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
					return
				}
			}
		})
		rt.Start()
		return measureRTT(b, pl.Addr(), 40)
	}()
	// Bounced: client calls stage0's service, then stage1's service.
	bounced := func() time.Duration {
		b := newBed(t, 23)
		rt := core.NewRuntime(b.bf.Platform(7))
		cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
		h, _ := rt.Register(b.gpu, cfg, 2)
		rt.AddService(core.UDP, 7000, nil, 1, h)
		rt.AddService(core.UDP, 7001, nil, 1, h)
		qs := h.AccelQueues()
		b.gpu.LaunchPersistent(b.tb.Sim, 2, func(tb *accel.TB) {
			aq := qs[tb.Index()]
			for {
				m := aq.Recv(tb.Proc())
				if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
					return
				}
			}
		})
		rt.Start()
		hist := metrics.NewHistogram()
		done := false
		cli := b.client.MustUDPBind(9000)
		b.tb.Sim.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				start := p.Now()
				cli.SendTo(netstack.Addr{Host: "bf1", Port: 7000}, make([]byte, 32))
				dg := cli.Recv(p)
				cli.SendTo(netstack.Addr{Host: "bf1", Port: 7001}, dg.Payload)
				cli.Recv(p)
				hist.Record(p.Now().Sub(start))
			}
			done = true
		})
		b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done })
		b.tb.Sim.Shutdown()
		return hist.Median()
	}()
	if pipelined >= bounced {
		t.Fatalf("pipeline hop (%v) should beat a client bounce (%v)", pipelined, bounced)
	}
}

// countingEcho launches one persistent echo threadblock per queue of h and
// returns its per-queue receipt counts.
func countingEcho(t *testing.T, b *bed, gpu *accel.GPU, h *core.AccelHandle) []int {
	t.Helper()
	qs := h.AccelQueues()
	got := make([]int, len(qs))
	if err := gpu.LaunchPersistent(b.tb.Sim, len(qs), func(tb *accel.TB) {
		i := tb.Index()
		for {
			m := qs[i].Recv(tb.Proc())
			got[i]++
			tb.Compute(10 * time.Microsecond)
			if qs[i].Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// twoByTwo deploys a two-stage pipeline (gpu0 -> gpu1, two queues a stage)
// on b and returns it with each stage's per-queue receipt counts.
func twoByTwo(t *testing.T, b *bed, policy core.Policy) (*core.Service, *core.Runtime, [2][]int) {
	t.Helper()
	gpu2 := b.server.AddGPU("gpu1", accel.K40m, false, "server1")
	rt := core.NewRuntime(b.bf.Platform(7))
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
	h1, _ := rt.Register(b.gpu, cfg, 2)
	h2, _ := rt.Register(gpu2, cfg, 2)
	pl, err := rt.AddPipeline(core.UDP, 7000, policy, 2, h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	got := [2][]int{countingEcho(t, b, b.gpu, h1), countingEcho(t, b, gpu2, h2)}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	return pl, rt, got
}

// StickyHash keys every stage on the client's address: two clients the
// policy puts on different queues reach different queues at stage 0 (the
// client's datagram source) and at stage 1 (the relay's reply destination).
func TestPipelineStickyHashKeysOnClient(t *testing.T) {
	b := newBed(t, 25)
	pl, _, got := twoByTwo(t, b, core.StickyHash{})
	var ports [2]uint16
	for port, found := uint16(9000), 0; found < 3; port++ {
		qi := core.StickyHash{}.Pick(netstack.Addr{Host: "client1", Port: port}, 2)
		if found&(1<<qi) == 0 {
			ports[qi] = port
			found |= 1 << qi
		}
	}
	const n = 20
	done := 0
	for _, port := range ports {
		cli := b.client.MustUDPBind(port)
		b.tb.Sim.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				cli.SendTo(pl.Addr(), make([]byte, 32))
				cli.Recv(p)
			}
			done++
		})
	}
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done == 2 })
	b.tb.Sim.Shutdown()
	for stage, counts := range got {
		if counts[0] != n || counts[1] != n {
			t.Errorf("stage %d receipts %v, want [%d %d]: one client per queue", stage, counts, n, n)
		}
	}
}

// A stalled queue of a later stage fails over like a service queue: the
// watchdog marks it failed and relays steer around it to the healthy one.
func TestPipelineRelayFailover(t *testing.T) {
	p := model.Default()
	const stallAt = 2 * time.Millisecond
	tb := snic.NewTestbedWith(26, &p, fault.Config{
		Stalls: []fault.Stall{{Accel: "gpu1", Queue: 0, At: stallAt, For: time.Hour}},
	}, nil)
	server := tb.NewMachine("server1", 6)
	b := &bed{tb: tb, params: p, server: server, bf: server.AttachBlueField("bf1"),
		gpu: server.AddGPU("gpu0", accel.K40m, false, "server1"), client: tb.AddClient("client1")}
	pl, rt, got := twoByTwo(t, b, nil)
	var atStall [2]int
	tb.Sim.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(stallAt)
		copy(atStall[:], got[1])
	})
	res := workloadRun(b, workloadNew(b, workloadCfg(pl.Addr(), 4, 20*time.Millisecond)))
	if st := rt.Stats(); st.Failovers < 1 {
		t.Fatalf("no failover after stalling gpu1 queue 0: %v", st)
	}
	// Round-robin relays split evenly while both queues live; after the
	// failover the healthy queue takes every relay.
	dead, live := got[1][0]-atStall[0], got[1][1]-atStall[1]
	if dead != 0 || uint64(live) < pl.Relayed()/2 {
		t.Errorf("after the stall: dead queue served %d, live queue %d of %d relays", dead, live, pl.Relayed())
	}
	if res.Received == 0 || res.Lost > res.Received/50 {
		t.Errorf("received %d, lost %d", res.Received, res.Lost)
	}
}

func measureRTT(b *bed, target netstack.Addr, n int) time.Duration {
	hist := metrics.NewHistogram()
	done := false
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			start := p.Now()
			cli.SendTo(target, make([]byte, 32))
			cli.Recv(p)
			hist.Record(p.Now().Sub(start))
		}
		done = true
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done })
	b.tb.Sim.Shutdown()
	return hist.Median()
}

func TestPipelineValidation(t *testing.T) {
	b := newBed(t, 24)
	rt := core.NewRuntime(b.bf.Platform(7))
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 64}
	h, _ := rt.Register(b.gpu, cfg, 4)
	if _, err := rt.AddPipeline(core.UDP, 7000, nil, 1, h); err == nil {
		t.Fatal("single-stage pipeline must be rejected")
	}
	if _, err := rt.AddPipeline(core.UDP, 7000, nil, 3, h, h); err == nil {
		t.Fatal("over-claiming queues must fail")
	}
	if _, err := rt.AddPipeline(core.UDP, 7000, nil, 2, h, h); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if _, err := rt.AddPipeline(core.UDP, 7002, nil, 1, h, h); err == nil {
		t.Fatal("AddPipeline after Start must fail")
	}
	b.tb.Sim.Shutdown()
}

// test helpers shared by policy tests.
func workloadCfg(target netstack.Addr, clients int, window time.Duration) workload.Config {
	return workload.Config{
		Proto: workload.UDP, Target: target, Payload: 64,
		Clients: clients, Duration: window, Warmup: window / 5,
	}
}

func workloadNew(b *bed, cfg workload.Config) *workload.Generator {
	return workload.New(b.tb.Sim, cfg, b.client)
}

func workloadRun(b *bed, g *workload.Generator) workload.Result {
	return workload.RunFor(b.tb.Sim, g)
}
