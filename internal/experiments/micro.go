package experiments

import (
	"time"

	"lynx/internal/accel"
	"lynx/internal/core"
	"lynx/internal/hostcentric"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

func init() {
	register("sec3-invocation", "GPU management overhead of the host-centric pipeline (§3.2)", sec3Invocation)
	register("sec3-noisy", "noisy-neighbor p99 inflation on a host-centric GPU server (§3.2)", sec3Noisy)
	register("fig5", "mqueue transfer mechanisms vs cudaMemcpyAsync (Fig. 5)", fig5)
	register("sec511-vma", "VMA vs kernel network stack latency (§5.1.1)", sec511VMA)
	register("sec51-barrier", "RDMA-read write-barrier cost per message (§5.1)", sec51Barrier)
	register("ablate-coalesce", "ablation: metadata/data coalescing on/off (§5.1)", ablateCoalesce)
	register("ablate-dispatch", "ablation: round-robin vs sticky dispatch policies (§4.2)", ablateDispatch)
	register("ablate-poll", "ablation: accelerator polling interval sensitivity", ablatePoll)
	register("ablate-qp-share", "ablation: shared vs per-mqueue QPs (engine ops per message, §5.1)", ablateQPShare)
}

// invocationKernel is the §3.2 echo kernel duration.
const invocationKernel = 100 * time.Microsecond

// invocationPoint is the §3.2 echo measurement.
type invocationPoint struct{}

// invocation is the median end-to-end latency of the §3.2 echo and its pure
// GPU management overhead (end-to-end minus kernel time minus wire RTT).
type invocation struct{ e2e, overhead time.Duration }

func (invocationPoint) run(cfg Config) invocation {
	e := newEnv(cfg)
	sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
		Port: 7000, Streams: 1, Cores: 1, KernelTime: invocationKernel,
	})
	if err := sv.Start(); err != nil {
		panic(err)
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: e.server.NetHost.Addr(7000), Payload: 8,
		Clients: 1, Duration: cfg.window(20 * time.Millisecond), Warmup: time.Millisecond,
	})
	wire := e.tb.Net.RTT(8)
	e.tb.Sim.Shutdown()
	return invocation{res.Hist.Median(), res.Hist.Median() - invocationKernel - wire}
}

// sec3Invocation reproduces the §3.2 echo measurement: a 100 µs GPU kernel
// measures ~130 µs end-to-end through the host-centric pipeline — ~30 µs of
// pure GPU management overhead per request.
func sec3Invocation(cfg Config) *Report {
	const kernel = invocationKernel
	inv := measure(cfg, invocationPoint{})
	r := &Report{
		ID:      "sec3-invocation",
		Title:   "Host-centric GPU invocation overhead (100µs echo kernel)",
		Columns: []string{"measured", "paper"},
	}
	r.AddRow("end-to-end latency", inv.e2e, "130µs")
	r.AddRow("kernel time", kernel, "100µs")
	r.AddRow("management overhead", inv.overhead, "30µs")
	r.Note("overhead = 2x cudaMemcpyAsync setup + kernel launch + stream sync, all under the driver lock")
	return r
}

// noisyCell drives the §3.2 vector-multiply host-centric server once, with
// or without the LLC-thrashing neighbor.
type noisyCell struct{ noisy bool }

func (c noisyCell) run(cfg Config) workload.Result {
	e := newEnv(Config{Seed: cfg.Seed, Scale: cfg.Scale, Invariants: cfg.Invariants})
	e.server.CPU.SetNoisy(c.noisy)
	sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
		Port: 7000, Streams: 4, Cores: 1,
		KernelTime: 50 * time.Microsecond,
	})
	if err := sv.Start(); err != nil {
		panic(err)
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: e.server.NetHost.Addr(7000),
		Payload: 4 * 256, // 256 integers, §3.2
		Clients: 4, Duration: cfg.window(80 * time.Millisecond), Warmup: 2 * time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return res
}

// sec3Noisy reproduces the §3.2 noisy-neighbor experiment: a vector-multiply
// GPU server co-located with an LLC-thrashing matrix product sees its p99
// latency inflate ~13x (0.13 ms -> 1.7 ms); the matmul slows by 21%.
func sec3Noisy(cfg Config) *Report {
	res := measureAll(cfg, []noisyCell{{false}, {true}})
	quiet, noisy := res[noisyCell{false}], res[noisyCell{true}]
	params := model.Default()
	r := &Report{
		ID:      "sec3-noisy",
		Title:   "Noisy neighbor vs host-centric GPU server (vector multiply)",
		Columns: []string{"p50", "p99", "paper p99"},
	}
	r.AddRow("isolated", quiet.Hist.Median(), quiet.Hist.P99(), "130µs")
	r.AddRow("with noisy neighbor", noisy.Hist.Median(), noisy.Hist.P99(), "1.7ms")
	r.AddRow("p99 inflation", "", fmtFloat(p99Ratio(noisy, quiet))+"x", "13x")
	r.AddRow("matmul slowdown", "", fmtFloat(params.NeighborSlowdown*100)+"%", "21%")
	return r
}

// fig5 reproduces Figure 5: delivery rate of a single-mqueue GPU echo
// server under four data/control transfer mechanism combinations, as speedup
// over the all-cudaMemcpyAsync baseline, for payloads of 20..1416 bytes.
// Per message the manager moves the payload toward the GPU with the data
// mechanism, rings the notification register with the control mechanism, a
// single GPU threadblock consumes and echoes, and the manager collects the
// response through the same mechanisms.
// fig5Mech selects the data/control transfer mechanism of one Figure 5 row.
type fig5Mech struct {
	name        string
	dataRDMA    bool
	controlRDMA bool // coalesced with the data write
	controlGdr  bool
}

// fig5Mechanisms are Figure 5's four rows; index 0 is the all-cudaMemcpyAsync
// baseline the speedups are computed against.
var fig5Mechanisms = []fig5Mech{
	{name: "data:cudaMemcpy control:cudaMemcpy"},
	{name: "data:cudaMemcpy control:gdrcopy", controlGdr: true},
	{name: "data:RDMA control:gdrcopy", dataRDMA: true, controlGdr: true},
	{name: "data:RDMA control:RDMA", dataRDMA: true, controlRDMA: true},
}

// fig5Cell is one Figure 5 (mechanism, payload) cell; run measures its
// delivered echoes per second through a single mqueue.
type fig5Cell struct {
	fig5Mech
	payload int
}

func (c fig5Cell) run(cfg Config) float64 {
	e := newEnv(cfg)
	p := &e.params
	region := e.gpu.Device().Mem.MustAlloc("fig5", 1<<20)
	qp := e.server.RDMA.CreateQP(e.gpu.Device(), rdma.QPConfig{Kind: rdma.RC})
	st := e.gpu.NewStream()
	// The echo threadblock: consume (3 local accesses), produce.
	toGPU := sim.NewChan[[]byte](e.tb.Sim, 0)
	fromGPU := sim.NewChan[[]byte](e.tb.Sim, 0)
	if err := e.gpu.LaunchPersistent(e.tb.Sim, 1, func(tb *accel.TB) {
		for {
			msg := toGPU.Get(tb.Proc())
			tb.Proc().Sleep(4 * p.GPULocalAccess)
			fromGPU.Put(tb.Proc(), msg)
		}
	}); err != nil {
		panic(err)
	}
	gdrOp := func(pr *sim.Proc) { pr.Sleep(p.GdrcopySetup + p.PCIeLatency) }
	done := 0
	e.tb.Sim.Spawn("manager", func(pr *sim.Proc) {
		buf := make([]byte, c.payload)
		for {
			// Deliver payload + notification.
			switch {
			case c.dataRDMA && c.controlRDMA:
				qp.Write(pr, region, 0, buf) // coalesced single write
			case c.dataRDMA:
				qp.Write(pr, region, 0, buf)
				gdrOp(pr) // doorbell via mapped BAR store
			default:
				st.MemcpyH2D(pr, c.payload)
				if c.controlGdr {
					gdrOp(pr)
				} else {
					st.MemcpyH2D(pr, 4)
				}
			}
			toGPU.Put(pr, buf)
			resp := fromGPU.Get(pr)
			// Collect the response with the real poll protocol:
			// header-counter read, payload read, consumed-counter
			// write-back.
			if c.dataRDMA {
				qp.Read(pr, region, 0, 8)
				qp.Read(pr, region, 0, len(resp))
				qp.Write(pr, region, 0, []byte{0, 0, 0, 0, 0, 0, 0, 0})
			} else {
				st.MemcpyD2H(pr, len(resp))
				if c.controlGdr {
					gdrOp(pr)
				} else {
					st.MemcpyD2H(pr, 4)
				}
			}
			done++
		}
	})
	window := cfg.window(8 * time.Millisecond)
	e.tb.Sim.RunUntil(sim.Time(window))
	e.tb.Sim.Shutdown()
	return float64(done) / window.Seconds()
}

func fig5(cfg Config) *Report {
	payloads := []int{20, 116, 516, 1016, 1416}
	mechanisms := fig5Mechanisms
	r := &Report{
		ID:      "fig5",
		Title:   "mqueue transfer mechanisms, speedup vs cudaMemcpyAsync (Fig. 5)",
		Columns: []string{"20B", "116B", "516B", "1016B", "1416B"},
	}
	var pts []fig5Cell
	for _, m := range mechanisms {
		for _, payload := range payloads {
			pts = append(pts, fig5Cell{m, payload})
		}
	}
	val := measureAll(cfg, pts)
	for _, m := range mechanisms {
		cells := make([]any, len(payloads))
		for i, payload := range payloads {
			cells[i] = fmtFloat(speedup(val[fig5Cell{m, payload}], val[fig5Cell{mechanisms[0], payload}])) + "x"
		}
		r.AddRow(m.name, cells...)
	}
	r.Note("paper: RDMA wins everywhere, ~5x at small payloads; cudaMemcpyAsync pays a 7-8µs setup per op")
	return r
}

// vmaStackRatio is the model's kernel/VMA per-packet UDP stack cost ratio
// for the given core kind (§5.1.1): the stack processing component of the
// end-to-end latencies, mqueue and wire parts stripped. Shared by
// sec511-vma and the scorecard.
func vmaStackRatio(kind model.CPUKind) float64 {
	pm := model.Default()
	return float64(pm.UDPCost(kind, false)) / float64(pm.UDPCost(kind, true))
}

// vmaCell is one §5.1.1 echo deployment, on BlueField or the host, over the
// kernel stack or VMA (bypass); run measures its median latency.
type vmaCell struct{ bf, bypass bool }

func (c vmaCell) run(cfg Config) time.Duration {
	e := newEnv(cfg)
	var plat core.Platform
	if c.bf {
		plat = e.bf.Platform(7)
	} else {
		plat = e.server.HostPlatform(6, c.bypass)
	}
	plat.Bypass = c.bypass
	target, _ := e.echoDeployment(plat, 1, 0, 128)
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: target, Payload: 20,
		Clients: 1, Duration: cfg.window(10 * time.Millisecond), Warmup: time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return res.Hist.Median()
}

// sec511VMA compares kernel vs VMA (user-level) network stacks: §5.1.1
// reports 4x lower UDP processing latency on BlueField and 2x on the host.
func sec511VMA(cfg Config) *Report {
	med := measureAll(cfg, []vmaCell{{true, false}, {true, true}, {false, false}, {false, true}})
	r := &Report{
		ID:      "sec511-vma",
		Title:   "VMA user-level stack vs kernel stack (§5.1.1)",
		Columns: []string{"kernel", "VMA", "stack-cost ratio", "paper"},
	}
	r.AddRow("BlueField E2E", med[vmaCell{true, false}], med[vmaCell{true, true}], fmtFloat(vmaStackRatio(model.ARMCore))+"x", "4x")
	r.AddRow("Host E2E", med[vmaCell{false, false}], med[vmaCell{false, true}], fmtFloat(vmaStackRatio(model.XeonCore))+"x", "2x")
	r.Note("E2E latency includes mqueue and wire time; the ratio column isolates per-packet stack processing")
	return r
}

// barrierCell pushes messages through one mqueue, with or without the §5.1
// RDMA-read write barrier.
type barrierCell struct{ barrier bool }

// delivery is barrierCell's per-message delivery latency and rate.
type delivery struct {
	latency time.Duration
	rate    float64
}

// pushTestbed builds one mqueue of mqCfg in a region named name, pushed
// over RDMA from the host and drained by a receive-only threadblock (the
// §5.1 barrier and coalescing measurements).
func pushTestbed(cfg Config, name string, mqCfg mqueue.Config) (*env, *mqueue.Queue) {
	e := newEnv(cfg)
	region := e.gpu.Device().Mem.MustAlloc(name, 1<<20)
	qp := e.server.RDMA.CreateQP(e.gpu.Device(), rdma.QPConfig{Kind: rdma.RC})
	q, _ := mqueue.New(region, 0, mqCfg, qp)
	aq, _ := mqueue.Attach(region, 0, mqCfg, e.gpu.Profile())
	launchRxSinks(e, []*mqueue.AccelQueue{aq})
	return e, q
}

func (c barrierCell) run(cfg Config) delivery {
	e, q := pushTestbed(cfg, "bar", mqueue.Config{Slots: 64, SlotSize: 128, Barrier: c.barrier, NoCoalesce: c.barrier})
	hist := metrics.NewHistogram()
	e.tb.Sim.Spawn("pusher", func(p *sim.Proc) {
		for {
			start := p.Now()
			if _, err := q.Push(p, make([]byte, 64), 0); err != nil {
				p.Sleep(2 * time.Microsecond)
				continue
			}
			hist.Record(p.Now().Sub(start))
		}
	})
	window := cfg.window(5 * time.Millisecond)
	e.tb.Sim.RunUntil(sim.Time(window))
	e.tb.Sim.Shutdown()
	return delivery{hist.Median(), float64(hist.Count()) / window.Seconds()}
}

// sec51Barrier measures the cost of the §5.1 consistency workaround: with
// the RDMA-read write barrier each message needs three transactions instead
// of one coalesced write, ~5 µs extra.
func sec51Barrier(cfg Config) *Report {
	res := measureAll(cfg, []barrierCell{{false}, {true}})
	off, on := res[barrierCell{false}], res[barrierCell{true}]
	r := &Report{
		ID:      "sec51-barrier",
		Title:   "GPU write-barrier workaround cost (§5.1)",
		Columns: []string{"per-message delivery", "deliveries/s"},
	}
	r.AddRow("coalesced (barrier off)", off.latency, off.rate)
	r.AddRow("barrier on (3 transactions)", on.latency, on.rate)
	r.AddRow("extra per message", on.latency-off.latency, "")
	r.Note("paper measures ~5µs extra per message; the evaluation (like ours) runs with the barrier disabled")
	return r
}

// coalesceCell pushes messages through one mqueue with or without
// metadata/data coalescing; run measures RDMA ops per delivered message.
type coalesceCell struct{ coalesce bool }

func (c coalesceCell) run(cfg Config) float64 {
	e, q := pushTestbed(cfg, "co", mqueue.Config{Slots: 64, SlotSize: 128, NoCoalesce: !c.coalesce})
	delivered := 0
	e.tb.Sim.Spawn("pusher", func(p *sim.Proc) {
		for {
			if _, err := q.Push(p, make([]byte, 64), 0); err != nil {
				p.Sleep(time.Microsecond)
				continue
			}
			delivered++
		}
	})
	e.tb.Sim.RunUntil(sim.Time(cfg.window(5 * time.Millisecond)))
	ops := float64(e.server.RDMA.Ops())
	e.tb.Sim.Shutdown()
	return ops / float64(delivered)
}

// ablateCoalesce quantifies metadata/data coalescing: RDMA ops per delivered
// message with and without it.
func ablateCoalesce(cfg Config) *Report {
	ops := measureAll(cfg, []coalesceCell{{true}, {false}})
	r := &Report{
		ID:      "ablate-coalesce",
		Title:   "Metadata/data coalescing ablation (§5.1)",
		Columns: []string{"RDMA ops per message"},
	}
	r.AddRow("coalesced", ops[coalesceCell{true}])
	r.AddRow("separate metadata", ops[coalesceCell{false}])
	return r
}

// dispatchPolicy is one §4.2 dispatch policy; run measures a 100µs echo
// service on 8 queues under it, offered skewed load: 16 client flows from 2
// hosts.
type dispatchPolicy int

const (
	roundRobin dispatchPolicy = iota
	stickyHash
	leastLoaded
)

var dispatchPolicyNames = []string{"round-robin", "sticky-hash", "least-loaded"}

func (d dispatchPolicy) run(cfg Config) workload.Result {
	e := newEnv(cfg)
	rt := core.NewRuntime(e.bf.Platform(7))
	h, _ := rt.Register(e.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 8)
	var policy core.Policy = &core.RoundRobin{}
	switch d {
	case stickyHash:
		policy = core.StickyHash{}
	case leastLoaded:
		policy = core.NewLeastLoaded(h)
	}
	svc, _ := rt.AddService(core.UDP, 7000, policy, 8, h)
	if err := e.gpu.Serve(e.tb.Sim, h.AccelQueues(), 0, 100*time.Microsecond, nil); err != nil {
		panic(err)
	}
	rt.Start()
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: svc.Addr(), Payload: 64,
		Clients: 16, Duration: cfg.window(20 * time.Millisecond), Warmup: time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return res
}

// ablateDispatch compares round-robin vs sticky dispatch with skewed
// clients: sticky keeps per-client order but can hotspot one queue.
func ablateDispatch(cfg Config) *Report {
	res := measureAll(cfg, []dispatchPolicy{roundRobin, stickyHash, leastLoaded})
	r := &Report{
		ID:      "ablate-dispatch",
		Title:   "Dispatch policy ablation: round-robin vs sticky vs least-loaded (§4.2)",
		Columns: []string{"throughput", "p99"},
	}
	for d, name := range dispatchPolicyNames {
		r.AddRow(name, res[dispatchPolicy(d)].Throughput(), res[dispatchPolicy(d)].Hist.P99())
	}
	r.Note("16 client flows from 2 hosts over 8 queues: sticky hashing concentrates load; round-robin and")
	r.Note("least-loaded balance it, least-loaded additionally absorbing service-time variance")
	return r
}

// pollInterval is one accelerator polling interval; run measures a
// BlueField 20µs echo service whose GPU polls at it.
type pollInterval time.Duration

func (d pollInterval) run(cfg Config) workload.Result {
	p := model.Default()
	p.GPUPollInterval = time.Duration(d)
	e := newEnvWith(cfg, &p)
	target, _ := e.echoDeployment(e.bf.Platform(7), 4, 20*time.Microsecond, 128)
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: target, Payload: 64,
		Clients: 8, Duration: cfg.window(10 * time.Millisecond), Warmup: time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return res
}

// ablatePoll sweeps the accelerator polling interval.
func ablatePoll(cfg Config) *Report {
	r := &Report{
		ID:      "ablate-poll",
		Title:   "Accelerator polling interval sensitivity",
		Columns: []string{"median latency", "throughput"},
	}
	intervals := []pollInterval{pollInterval(200 * time.Nanosecond), pollInterval(600 * time.Nanosecond),
		pollInterval(2 * time.Microsecond), pollInterval(10 * time.Microsecond)}
	res := measureAll(cfg, intervals)
	for _, d := range intervals {
		r.AddRow(time.Duration(d).String(), res[d].Hist.Median(), res[d].Throughput())
	}
	return r
}

// qpShare measures header polling of 64 queues behind one shared QP: run
// returns the RDMA ops of one batched sweep and of one per-queue sweep.
type qpShare struct{}

func (qpShare) run(cfg Config) [2]uint64 {
	const n = 64
	e := newEnv(cfg)
	region := e.gpu.Device().Mem.MustAlloc("qps", 1<<22)
	sharedQP := e.server.RDMA.CreateQP(e.gpu.Device(), rdma.QPConfig{Kind: rdma.RC})
	group, err := mqueue.NewGroup(region, 0, mqueue.Config{Slots: 8, SlotSize: 64}, n, sharedQP)
	if err != nil {
		panic(err)
	}
	var ops [2]uint64
	e.tb.Sim.Spawn("x", func(p *sim.Proc) {
		before := e.server.RDMA.Ops()
		group.Refresh(p)
		ops[0] = e.server.RDMA.Ops() - before
		// Per-queue polling: one header read per queue.
		before = e.server.RDMA.Ops()
		for i := 0; i < n; i++ {
			group.Queue(i).Refresh(p)
		}
		ops[1] = e.server.RDMA.Ops() - before
	})
	e.tb.Sim.RunUntil(sim.Time(time.Second))
	e.tb.Sim.Shutdown()
	return ops
}

// ablateQPShare verifies the one-RC-QP-per-accelerator design: header
// polling of n queues costs one batched read on the shared QP, vs n reads
// with per-queue QPs.
func ablateQPShare(cfg Config) *Report {
	ops := measure(cfg, qpShare{})
	r := &Report{
		ID:      "ablate-qp-share",
		Title:   "Shared QP + batched header polling vs per-queue polling (§5.1)",
		Columns: []string{"RDMA ops per sweep"},
	}
	r.AddRow("shared QP, batched headers", float64(ops[0]))
	r.AddRow("per-queue header reads", float64(ops[1]))
	return r
}
