package experiments

import (
	"fmt"
	"time"

	"lynx/internal/accel"
	"lynx/internal/apps/lenet"
	"lynx/internal/core"
	"lynx/internal/hostcentric"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/snic"
	"lynx/internal/workload"
)

func init() {
	register("fig8a", "LeNet inference service: throughput and latency (Fig. 8a)", fig8a)
	register("fig8a-tcp", "LeNet inference service over TCP (§6.3)", fig8aTCP)
	register("fig8b", "LeNet scaleout to remote GPUs (Fig. 8b)", fig8b)
	register("fig8c", "multi-GPU scalability projection (Fig. 8c)", fig8c)
}

// lenetLaunches approximates the TVM-generated LeNet as a chain of per-layer
// kernels (conv1, pool1, conv2, pool2, fc1, fc2, fc3 + epilogue).
const lenetLaunches = 8

// lenetBody fills a request after its sequence header with a rendered digit
// image. The image depends only on seq mod 50, so the server sees at most 50
// distinct images.
func lenetBody(seq uint64, buf []byte) {
	img := lenet.RenderDigit(int(seq%10), int(seq%5)-2, int(seq/5%5)-2)
	copy(buf[workload.SeqBytes:], img)
}

const lenetPayload = workload.SeqBytes + lenet.InputBytes

// lenetHandler runs the real network and produces [seq][class] responses.
func lenetHandler(net *lenet.Network) func(req []byte) []byte {
	return func(req []byte) []byte {
		resp := make([]byte, workload.SeqBytes+1)
		copy(resp, req[:workload.SeqBytes])
		if len(req) >= lenetPayload {
			if cls, err := net.Classify(req[workload.SeqBytes:lenetPayload]); err == nil {
				resp[workload.SeqBytes] = byte(cls)
			}
		}
		return resp
	}
}

// deployLynxLeNet stands up the §6.3 Lynx LeNet server on one GPU: a single
// server mqueue whose persistent threadblock polls, then runs the inference
// through dynamic parallelism (whole-GPU child kernels). Real LeNet code
// computes the answer; the calibrated service time charges the GPU.
func deployLynxLeNet(e *env, rt *core.Runtime, gpu *accel.GPU, net *lenet.Network, port uint16, proto core.Proto) netstack.Addr {
	service := e.params.LeNetServiceK40
	if gpu.Model() == accel.K80Half {
		service = e.params.LeNetServiceK80
	}
	h, err := rt.Register(gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: lenetPayload + 16}, 1)
	if err != nil {
		panic(err)
	}
	svc, err := rt.AddService(proto, port, nil, 1, h)
	if err != nil {
		panic(err)
	}
	handler := lenetHandler(net)
	aq := h.AccelQueues()[0]
	if err := gpu.LaunchPersistent(e.tb.Sim, 1, func(tb *accel.TB) {
		for {
			m := aq.Recv(tb.Proc())
			resp := handler(m.Payload)
			tb.SpawnChild(service)
			if aq.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
				return
			}
		}
	}); err != nil {
		panic(err)
	}
	return svc.Addr()
}

// fig8a measures the LeNet server three ways and reports throughput plus the
// latency distribution at maximum throughput, like Figure 8a.
func fig8a(cfg Config) *Report {
	net := lenet.New(42)
	window := cfg.window(60 * time.Millisecond)
	run := func(platform string, clients int) workload.Result {
		e := newEnv(cfg)
		if platform == platHostCentric {
			sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
				Port: 7000, Streams: 8, Cores: 1, Bypass: true,
				KernelTime: e.params.LeNetServiceK40, Exclusive: true, Launches: lenetLaunches,
				Handler: lenetHandler(net),
			})
			if err := sv.Start(); err != nil {
				panic(err)
			}
			res := e.measure(workload.Config{
				Proto: workload.UDP, Target: e.server.NetHost.Addr(7000), Payload: lenetPayload,
				Body: lenetBody, Clients: clients, Duration: window, Warmup: window / 6,
			})
			e.tb.Sim.Shutdown()
			return res
		}
		rt := core.NewRuntime(e.lynxPlatform(platform))
		target := deployLynxLeNet(e, rt, e.gpu, net, 7000, core.UDP)
		if err := rt.Start(); err != nil {
			panic(err)
		}
		res := e.measure(workload.Config{
			Proto: workload.UDP, Target: target, Payload: lenetPayload,
			Body: lenetBody, Clients: clients, Duration: window, Warmup: window / 6,
		})
		e.tb.Sim.Shutdown()
		return res
	}
	r := &Report{
		ID:      "fig8a",
		Title:   "LeNet digit recognition service, UDP (Fig. 8a)",
		Columns: []string{"req/s", "p90 low-load", "p99 low-load", "paper req/s", "paper p90"},
	}
	rows := []struct{ plat, paperTput, paperP90 string }{
		{platHostCentric, "2.8K", "~340µs"},
		{platLynxBF, "3.5K", "300µs"},
		{platLynx1Xeon, "3.5K", "295µs"},
	}
	// Per platform: a saturation run (3 clients) and a low-load latency run
	// (1 client) — all independent testbeds.
	results := make([]workload.Result, 2*len(rows))
	cfg.sweep(len(results), func(i int) {
		clients := 3
		if i%2 == 1 {
			clients = 1
		}
		results[i] = run(rows[i/2].plat, clients)
	})
	for i, row := range rows {
		sat, lowLoad := results[2*i], results[2*i+1]
		r.AddRow(row.plat, sat.Throughput(), lowLoad.Hist.P90(), lowLoad.Hist.P99(),
			row.paperTput, row.paperP90)
	}
	maxRate := float64(time.Second) / float64(defaultParams().LeNetServiceK40+defaultParams().DynamicParallelismLaunch)
	r.AddRow("theoretical max (1 GPU)", maxRate, "", "", "3.6K", "")
	r.Note("throughput from 3 closed-loop clients (saturation); latency percentiles from a single-client run")
	return r
}

// fig8aTCP is the §6.3 TCP variant.
func fig8aTCP(cfg Config) *Report {
	net := lenet.New(42)
	window := cfg.window(60 * time.Millisecond)
	run := func(platform string, clients int) workload.Result {
		e := newEnv(cfg)
		rt := core.NewRuntime(e.lynxPlatform(platform))
		target := deployLynxLeNet(e, rt, e.gpu, net, 7000, core.TCP)
		if err := rt.Start(); err != nil {
			panic(err)
		}
		res := e.measure(workload.Config{
			Proto: workload.TCP, Target: target, Payload: lenetPayload,
			Body: lenetBody, Clients: clients, Duration: window, Warmup: window / 6,
		})
		e.tb.Sim.Shutdown()
		return res
	}
	r := &Report{
		ID:      "fig8a-tcp",
		Title:   "LeNet service over TCP (§6.3)",
		Columns: []string{"req/s", "p90 low-load", "paper req/s", "paper latency"},
	}
	type point struct {
		plat    string
		clients int
	}
	points := []point{{platLynxBF, 3}, {platLynxBF, 1}, {platLynx1Xeon, 3}, {platLynx1Xeon, 1}}
	results := make([]workload.Result, len(points))
	cfg.sweep(len(points), func(i int) { results[i] = run(points[i].plat, points[i].clients) })
	bf, bfLat, xeon, xeonLat := results[0], results[1], results[2], results[3]
	r.AddRow(platLynxBF, bf.Throughput(), bfLat.Hist.P90(), "3.1K", "346µs")
	r.AddRow(platLynx1Xeon, xeon.Throughput(), xeonLat.Hist.P90(), "3.3K", "322µs")
	r.Note("paper: TCP costs ~10%% throughput on BlueField and ~5%% on Xeon vs UDP; in this model the")
	r.Note("penalty appears as added per-request latency while single-GPU throughput stays GPU-bound")
	return r
}

// fig8b scales the LeNet service across 12 K80 GPUs in three machines: 4
// local to the BlueField, then 4 and 8 more behind remote hosts' RDMA NICs.
func fig8b(cfg Config) *Report {
	net := lenet.New(42)
	window := cfg.window(50 * time.Millisecond)
	run := func(nLocal, nRemote int) (float64, time.Duration) {
		e := newEnv(cfg)
		rt := core.NewRuntime(e.bf.Platform(7))
		var gpus []*accel.GPU
		for i := 0; i < nLocal; i++ {
			gpus = append(gpus, e.server.AddGPU(fmt.Sprintf("gpu-l%d", i), accel.K80Half, false, "server1"))
		}
		var remotes []*snic.Machine
		for m := 0; m*4 < nRemote; m++ {
			remotes = append(remotes, e.tb.NewMachine(fmt.Sprintf("server%d", m+2), 6))
		}
		for i := 0; i < nRemote; i++ {
			m := remotes[i/4]
			gpus = append(gpus, m.AddGPU(fmt.Sprintf("gpu-r%d", i), accel.K80Half, false, "server1"))
		}
		// One mqueue per GPU, all in one service; round-robin dispatch.
		var handles []*core.AccelHandle
		for _, g := range gpus {
			h, err := rt.Register(g, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: lenetPayload + 16}, 1)
			if err != nil {
				panic(err)
			}
			handles = append(handles, h)
		}
		svc, err := rt.AddService(core.UDP, 7000, nil, 1, handles...)
		if err != nil {
			panic(err)
		}
		handler := lenetHandler(net)
		for gi, g := range gpus {
			aq := handles[gi].AccelQueues()[0]
			g := g
			if err := g.LaunchPersistent(e.tb.Sim, 1, func(tb *accel.TB) {
				for {
					m := aq.Recv(tb.Proc())
					resp := handler(m.Payload)
					tb.SpawnChild(e.params.LeNetServiceK80)
					if aq.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
						return
					}
				}
			}); err != nil {
				panic(err)
			}
		}
		rt.Start()
		res := e.measure(workload.Config{
			Proto: workload.UDP, Target: svc.Addr(), Payload: lenetPayload,
			Body: lenetBody, Clients: 3 * len(gpus), Duration: window, Warmup: window / 5,
		})
		e.tb.Sim.Shutdown()
		return res.Throughput(), res.Hist.Median()
	}
	r := &Report{
		ID:      "fig8b",
		Title:   "LeNet scaleout to remote K80 GPUs (Fig. 8b)",
		Columns: []string{"req/s", "median latency", "paper req/s"},
	}
	remoteCounts := []int{0, 4, 8}
	tputs := make([]float64, len(remoteCounts))
	lats := make([]time.Duration, len(remoteCounts))
	cfg.sweep(len(remoteCounts), func(i int) { tputs[i], lats[i] = run(4, remoteCounts[i]) })
	t4, l4 := tputs[0], lats[0]
	t8, l8 := tputs[1], lats[1]
	t12, l12 := tputs[2], lats[2]
	r.AddRow("4 local", t4, l4, "~13K")
	r.AddRow("4 local + 4 remote", t8, l8, "~26K")
	r.AddRow("4 local + 8 remote", t12, l12, "~40K")
	r.AddRow("scaling 12 vs 4", speedup(t12, t4), "", "3.0")
	r.Note("paper: linear scaling regardless of GPU location; remote GPUs add ~8µs latency")
	return r
}

// fig8c reproduces the scalability projection: emulated LeNet delay kernels
// (the paper's own methodology) on an increasing number of GPUs, for UDP and
// TCP, with Lynx on BlueField vs one Xeon core.
func fig8c(cfg Config) *Report {
	service := defaultParams().LeNetServiceK80
	window := cfg.window(30 * time.Millisecond)
	run := func(platform string, proto core.Proto, nGPUs int) float64 {
		e := newEnv(cfg)
		rt := core.NewRuntime(e.lynxPlatform(platform))
		// Emulation per §6.3: N delay kernels on one physical GPU, one
		// mqueue each, each registered as its own accelerator context.
		var handles []*core.AccelHandle
		for i := 0; i < nGPUs; i++ {
			h, err := rt.Register(e.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 96}, 1)
			if err != nil {
				panic(err)
			}
			handles = append(handles, h)
		}
		svc, err := rt.AddService(proto, 7000, nil, 1, handles...)
		if err != nil {
			panic(err)
		}
		for _, h := range handles {
			aq := h.AccelQueues()[0]
			if err := e.gpu.LaunchPersistent(e.tb.Sim, 1, func(tb *accel.TB) {
				for {
					m := aq.Recv(tb.Proc())
					tb.Compute(service) // delay kernel, not exclusive
					if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
						return
					}
				}
			}); err != nil {
				panic(err)
			}
		}
		rt.Start()
		clients := 3 * nGPUs
		if clients > 360 {
			clients = 360
		}
		res := e.measure(workload.Config{
			Proto: protoToWorkload(proto), Target: svc.Addr(), Payload: 64,
			Clients: clients, Duration: window, Warmup: window / 5,
			Timeout: 500 * time.Millisecond,
		})
		e.tb.Sim.Shutdown()
		return res.Throughput()
	}
	counts := []int{1, 15, 30, 60, 90, 120}
	if cfg.Scale < 1 {
		counts = []int{1, 15, 60, 120}
	}
	r := &Report{
		ID:    "fig8c",
		Title: "Multi-GPU scalability projection, emulated LeNet kernels (Fig. 8c)",
	}
	for _, n := range counts {
		r.Columns = append(r.Columns, fmt.Sprintf("%d GPUs", n))
	}
	perGPU := float64(time.Second) / float64(service)
	series := []struct {
		name  string
		plat  string
		proto core.Proto
		paper string
	}{
		{"UDP " + platLynxBF, platLynxBF, core.UDP, "saturates at ~102 GPUs (paper)"},
		{"UDP " + platLynx1Xeon, platLynx1Xeon, core.UDP, "saturates at ~74 GPUs (paper)"},
		{"TCP " + platLynxBF, platLynxBF, core.TCP, "saturates at ~15 GPUs (paper)"},
		{"TCP " + platLynx1Xeon, platLynx1Xeon, core.TCP, "saturates at ~7 GPUs (paper)"},
	}
	// Every (series, GPU count) cell is an independent testbed.
	tputs := make([]float64, len(series)*len(counts))
	cfg.sweep(len(tputs), func(i int) {
		s := series[i/len(counts)]
		tputs[i] = run(s.plat, s.proto, counts[i%len(counts)])
	})
	for si, s := range series {
		cells := make([]any, len(counts))
		for i, n := range counts {
			tput := tputs[si*len(counts)+i]
			cells[i] = fmt.Sprintf("%s (%.0f%%)", fmtFloat(tput), 100*tput/(perGPU*float64(n)))
		}
		r.AddRow(s.name, cells...)
		r.Note("%s: %s", s.name, s.paper)
	}
	r.Note("cells: aggregate req/s (%% of linear scaling); one K80-speed delay kernel per emulated GPU")
	return r
}

func protoToWorkload(p core.Proto) workload.Proto {
	if p == core.TCP {
		return workload.TCP
	}
	return workload.UDP
}
