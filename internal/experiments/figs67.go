package experiments

import (
	"fmt"
	"math"
	"time"

	"lynx/internal/accel"
	"lynx/internal/core"
	"lynx/internal/hostcentric"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

func init() {
	register("fig6", "relative throughput of GPU server implementations (Fig. 6)", fig6)
	register("fig7", "relative latency, Lynx on BlueField vs 6-core Xeon (Fig. 7)", fig7)
	register("sec62-innova", "receive throughput: Innova FPGA vs BlueField vs host-centric (§6.2)", sec62Innova)
	register("sec62-isolation", "performance isolation: Lynx on BlueField vs noisy neighbor (§6.2)", sec62Isolation)
}

// fig6MQCounts and request times swept by Figure 6.
var (
	fig6MQCounts = []int{1, 120, 240}
	fig6ReqTimes = []time.Duration{20 * time.Microsecond, 200 * time.Microsecond,
		800 * time.Microsecond, 1600 * time.Microsecond}
)

// fig6Cell is one Figure 6 (platform, request time, mqueues) cell.
type fig6Cell struct {
	plat    string
	reqTime time.Duration
	nMQ     int
}

func (c fig6Cell) run(cfg Config) float64 { return c.throughput(cfg, model.BatchConfig{}) }

// throughput measures the cell's throughput in req/s using 64-byte UDP
// messages (§6.2: "We use 64B UDP messages to stress the system") on a
// testbed whose Params carry batching bc (zero: the run's cfg.Batch).
func (c fig6Cell) throughput(cfg Config, bc model.BatchConfig) float64 {
	p := model.Default()
	p.Batch = bc
	e := newEnvWith(cfg, &p)
	// Two closed-loop clients per mqueue saturate the pipeline without
	// building queueing that outlasts the measurement window.
	clients := c.nMQ * 2
	if clients > 480 {
		clients = 480
	}
	window := cfg.window(30 * time.Millisecond)
	if c.plat == platHostCentric {
		sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
			Port: 7000, Streams: c.nMQ, Cores: 1, KernelTime: c.reqTime,
		})
		if err := sv.Start(); err != nil {
			panic(err)
		}
		// The baseline saturates at the driver lock; offering hundreds of
		// closed-loop clients only builds queueing that outlasts the
		// measurement window. A small multiple of the stream pool
		// saturates it.
		hcClients := 2 * c.nMQ
		if hcClients > 32 {
			hcClients = 32
		}
		res := e.measure(workload.Config{
			Proto: workload.UDP, Target: e.server.NetHost.Addr(7000), Payload: 64,
			Clients: hcClients, Duration: window, Warmup: window / 4,
			Timeout: 500 * time.Millisecond,
		})
		e.tb.Sim.Shutdown()
		return res.Throughput()
	}
	target, _ := e.echoDeployment(e.lynxPlatform(c.plat), c.nMQ, c.reqTime, 128)
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: target, Payload: 64,
		Clients: clients, Duration: window, Warmup: window / 4,
		Timeout: 500 * time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return res.Throughput()
}

func fig6(cfg Config) *Report {
	platforms := []string{platHostCentric, platLynx1Xeon, platLynx6Xeon, platLynxBF}
	r := &Report{
		ID:    "fig6",
		Title: "Relative throughput of GPU echo servers, 64B UDP (Fig. 6; speedup vs host-centric)",
	}
	for _, n := range fig6MQCounts {
		r.Columns = append(r.Columns, fmt.Sprintf("%dmq", n))
	}
	var pts []fig6Cell
	for _, rt := range fig6ReqTimes {
		for _, plat := range platforms {
			for _, n := range fig6MQCounts {
				pts = append(pts, fig6Cell{plat, rt, n})
			}
		}
	}
	val := measureAll(cfg, pts)
	for _, rt := range fig6ReqTimes {
		for _, plat := range platforms {
			cells := make([]any, len(fig6MQCounts))
			for i, n := range fig6MQCounts {
				v := val[fig6Cell{plat, rt, n}]
				base := val[fig6Cell{platHostCentric, rt, n}]
				cells[i] = fmt.Sprintf("%s (%sx)", fmtFloat(v), fmtFloat(speedup(v, base)))
			}
			r.AddRow(fmt.Sprintf("%v %s", rt, plat), cells...)
		}
	}
	r.Note("paper: host-centric is slowest everywhere; Lynx/BlueField reaches 2x (1mq, short) to 15.3x (240mq)")
	r.Note("paper: BlueField always beats 1 Xeon core, and trails 6 Xeon cores by up to 45%% for short requests")
	return r
}

// fig7Cell is one Figure 7 (platform, request time, mqueues) cell.
type fig7Cell struct {
	plat    string
	reqTime time.Duration
	nMQ     int
}

// run measures the unloaded median request latency of a Lynx echo
// deployment on the cell's platform.
func (c fig7Cell) run(cfg Config) time.Duration {
	e := newEnv(cfg)
	target, _ := e.echoDeployment(e.lynxPlatform(c.plat), c.nMQ, c.reqTime, 128)
	reqs := 60
	if cfg.Scale < 1 {
		reqs = 20
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: target, Payload: 20,
		Clients: 1, Duration: time.Duration(reqs) * (c.reqTime + 100*time.Microsecond),
		Warmup: 2 * (c.reqTime + 100*time.Microsecond),
	})
	e.tb.Sim.Shutdown()
	return res.Hist.Median()
}

// fig7 measures unloaded request latency on BlueField vs 6 Xeon cores for
// request durations of 5..1600 µs and 1/120/240 mqueues, reporting the
// BF/Xeon slowdown ratio like Figure 7.
func fig7(cfg Config) *Report {
	reqTimes := []time.Duration{5 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
		200 * time.Microsecond, 400 * time.Microsecond, 800 * time.Microsecond, 1600 * time.Microsecond}
	r := &Report{
		ID:      "fig7",
		Title:   "Latency slowdown: Lynx on BlueField vs Lynx on 6 Xeon cores (Fig. 7)",
		Columns: []string{"1mq", "120mq", "240mq"},
	}
	mqCounts := []int{1, 120, 240}
	plats := []string{platLynxBF, platLynx6Xeon}
	var pts []fig7Cell
	for _, rt := range reqTimes {
		for _, n := range mqCounts {
			for _, plat := range plats {
				pts = append(pts, fig7Cell{plat, rt, n})
			}
		}
	}
	med := measureAll(cfg, pts)
	for _, rt := range reqTimes {
		cells := make([]any, 0, len(mqCounts))
		for _, n := range mqCounts {
			bf := med[fig7Cell{platLynxBF, rt, n}]
			xeon := med[fig7Cell{platLynx6Xeon, rt, n}]
			cells = append(cells, fmt.Sprintf("%sx (%v vs %v)", fmtFloat(float64(bf)/float64(xeon)), bf, xeon))
		}
		r.AddRow(rt.String(), cells...)
	}
	r.Note("paper: short requests are up to ~1.4x slower on BlueField; the gap vanishes above ~150-200µs")
	r.Note("paper absolute floor: 25µs (BF) vs 19µs (Xeon) end-to-end for a zero-work request")
	return r
}

// sec62MQCount is the §6.2 receive-path mqueue count.
const sec62MQCount = 240

// launchRxSinks starts receive-only GPU threadblocks: consume without
// responding. Every request is shorter than Serve's minimum length, so each
// one is dropped uncharged.
func launchRxSinks(e *env, qs []*mqueue.AccelQueue) {
	if err := e.gpu.Serve(e.tb.Sim, qs, math.MaxInt, 0, nil); err != nil {
		panic(err)
	}
}

// rxPath is one §6.2 receive path into GPU mqueues; run measures its
// receive rate in pkt/s.
type rxPath int

const (
	rxInnova rxPath = iota
	rxBlueField
	rxHost
)

func (p rxPath) run(cfg Config) float64 {
	return [...]func(Config) float64{innovaRxRate, bluefieldRxRate, hostRxRate}[p](cfg)
}

// innovaRxRate measures the Innova AFU's receive-path steering rate into GPU
// mqueues (§6.2).
func innovaRxRate(cfg Config) float64 {
	window := cfg.window(8 * time.Millisecond)
	e := newEnv(cfg)
	in := e.server.AttachInnova("innova1")
	qs, err := in.ServeUDP(7000, e.gpu, mqueue.Config{Slots: 16, SlotSize: 128}, sec62MQCount)
	if err != nil {
		panic(err)
	}
	launchRxSinks(e, qs)
	return e.openLoopRate(in.NetHost.Addr(7000), 9e6, window, func() uint64 { received, _ := in.Stats(); return received })
}

// bluefieldRxRate measures the same receive-only accelerator behind the Lynx
// runtime on BlueField (§6.2).
func bluefieldRxRate(cfg Config) float64 {
	window := cfg.window(8 * time.Millisecond)
	e := newEnv(cfg)
	rt := core.NewRuntime(e.bf.Platform(7))
	h, err := rt.Register(e.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, sec62MQCount)
	if err != nil {
		panic(err)
	}
	if _, err := rt.AddService(core.UDP, 7000, nil, sec62MQCount, h); err != nil {
		panic(err)
	}
	launchRxSinks(e, h.AccelQueues())
	rt.Start()
	return e.openLoopRate(e.bf.NetHost.Addr(7000), 2e6, window, func() uint64 { return rt.Stats().Received })
}

// hostRxRate measures the host-centric RX-only baseline: the CPU receives
// each packet and delivers it to the GPU with one cudaMemcpyAsync (no kernel
// per packet); the driver setup cost dominates.
func hostRxRate(cfg Config) float64 {
	window := cfg.window(8 * time.Millisecond)
	e := newEnv(cfg)
	const workers = 6
	streams := make([]*accel.Stream, workers)
	for w := range streams {
		streams[w] = e.gpu.NewStream()
	}
	var delivered uint64
	e.server.NetHost.MustUDPBind(7000).Serve("hc-rx", workers, func(p *sim.Proc, w int, _ netstack.Addr, msg, _ []byte) []byte {
		e.server.CPU.ExecOn(p, e.params.UDPCost(model.XeonCore, true))
		streams[w].MemcpyH2D(p, len(msg))
		delivered++
		return nil
	})
	return e.openLoopRate(e.server.NetHost.Addr(7000), 4e5, window, func() uint64 { return delivered })
}

// sec62Innova reproduces the receive-path comparison: Innova's AFU steers
// 7.4M pkt/s into mqueues, BlueField manages 0.5M, and the CPU-centric
// design is ~80x slower than Innova.
func sec62Innova(cfg Config) *Report {
	rates := measureAll(cfg, []rxPath{rxInnova, rxBlueField, rxHost})
	innovaRate, bfRate, hcRate := rates[rxInnova], rates[rxBlueField], rates[rxHost]

	r := &Report{
		ID:      "sec62-innova",
		Title:   "Receive throughput into GPU mqueues, 64B UDP, 240 mqueues (§6.2)",
		Columns: []string{"pkt/s", "paper"},
	}
	r.AddRow("Innova FPGA (NICA AFU)", innovaRate, "7.4M")
	r.AddRow("Lynx on BlueField", bfRate, "0.5M")
	r.AddRow("host-centric, 6 cores", hcRate, fmt.Sprintf("~%s (80x below Innova)", fmtFloat(7.4e6/80)))
	r.AddRow("Innova / BlueField", speedup(innovaRate, bfRate), "14.8x")
	r.AddRow("Innova / host-centric", speedup(innovaRate, hcRate), "80x")
	return r
}

// isolationCell is one noisy-neighbor point (§6.2 / §3.2): the Lynx
// BlueField deployment or the host-centric baseline, with or without a noisy
// co-tenant on the host CPU.
type isolationCell struct{ lynx, noisy bool }

func (c isolationCell) run(cfg Config) workload.Result {
	e := newEnv(cfg)
	e.server.CPU.SetNoisy(c.noisy)
	window := cfg.window(60 * time.Millisecond)
	if c.lynx {
		target, _ := e.echoDeployment(e.bf.Platform(7), 4, 50*time.Microsecond, 1100)
		res := e.measure(workload.Config{
			Proto: workload.UDP, Target: target, Payload: 4 * 256,
			Clients: 4, Duration: window, Warmup: 2 * time.Millisecond,
		})
		e.tb.Sim.Shutdown()
		return res
	}
	sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
		Port: 7000, Streams: 4, Cores: 1, KernelTime: 50 * time.Microsecond,
	})
	if err := sv.Start(); err != nil {
		panic(err)
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: e.server.NetHost.Addr(7000), Payload: 4 * 256,
		Clients: 4, Duration: window, Warmup: 2 * time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return res
}

// sec62Isolation re-runs the §3.2 noisy-neighbor experiment with Lynx on
// BlueField: the SNIC does not share the host LLC, so the server's tail is
// unaffected.
func sec62Isolation(cfg Config) *Report {
	bfQuiet, bfNoisy, hcQuiet, hcNoisy := isolationCell{true, false}, isolationCell{true, true},
		isolationCell{false, false}, isolationCell{false, true}
	res := measureAll(cfg, []isolationCell{bfQuiet, bfNoisy, hcQuiet, hcNoisy})
	r := &Report{
		ID:      "sec62-isolation",
		Title:   "Performance isolation under a noisy neighbor (§6.2 / §3.2)",
		Columns: []string{"p99 quiet", "p99 noisy", "inflation"},
	}
	r.AddRow("host-centric (host CPU)", res[hcQuiet].Hist.P99(), res[hcNoisy].Hist.P99(),
		fmtFloat(p99Ratio(res[hcNoisy], res[hcQuiet]))+"x")
	r.AddRow("Lynx on BlueField", res[bfQuiet].Hist.P99(), res[bfNoisy].Hist.P99(),
		fmtFloat(p99Ratio(res[bfNoisy], res[bfQuiet]))+"x")
	r.Note("paper: no interference on BlueField; ~13x p99 inflation for the CPU-resident server")
	return r
}
