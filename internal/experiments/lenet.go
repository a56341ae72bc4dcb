package experiments

import (
	"fmt"
	"sync"
	"time"

	"lynx/internal/accel"
	"lynx/internal/apps/lenet"
	"lynx/internal/core"
	"lynx/internal/hostcentric"
	"lynx/internal/model"
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
// server mqueue served by launchLeNet's kernel.
func deployLynxLeNet(e *env, rt *core.Runtime, gpu *accel.GPU, net *lenet.Network, port uint16, proto core.Proto) netstack.Addr {
	h, err := rt.Register(gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: lenetPayload + 16}, 1)
	if err != nil {
		panic(err)
	}
	svc, err := rt.AddService(proto, port, nil, 1, h)
	if err != nil {
		panic(err)
	}
	launchLeNet(e, gpu, h.AccelQueues()[0], net)
	return svc.Addr()
}

// launchLeNet launches the Lynx LeNet kernel on gpu: one persistent
// threadblock polls aq, then runs the inference through dynamic parallelism
// (whole-GPU child kernels). Real LeNet code computes the answer; the
// calibrated service time of the GPU's model charges the GPU.
func launchLeNet(e *env, gpu *accel.GPU, aq *mqueue.AccelQueue, net *lenet.Network) {
	service := e.params.LeNetServiceK40
	if gpu.Model() == accel.K80Half {
		service = e.params.LeNetServiceK80
	}
	handler := lenetHandler(net)
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
}

// sharedLeNet is the network every lenetCell serves; its classification memo
// is safe across sweep workers.
var sharedLeNet = sync.OnceValue(func() *lenet.Network { return lenet.New(42) })

// lenetCell is one Fig. 8a / §6.3 LeNet service run: the serving platform,
// the transport (host-centric serves UDP only) and the closed-loop client
// count. run measures the workload.
type lenetCell struct {
	plat    string
	proto   core.Proto
	clients int
}

func (c lenetCell) run(cfg Config) workload.Result {
	window := cfg.window(60 * time.Millisecond)
	e := newEnv(cfg)
	wcfg := workload.Config{
		Proto: protoToWorkload(c.proto), Payload: lenetPayload,
		Body: lenetBody, Clients: c.clients, Duration: window, Warmup: window / 6,
	}
	if c.plat == platHostCentric {
		sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
			Port: 7000, Streams: 8, Cores: 1,
			KernelTime: e.params.LeNetServiceK40, Exclusive: true, Launches: lenetLaunches,
			Handler: lenetHandler(sharedLeNet()),
		})
		if err := sv.Start(); err != nil {
			panic(err)
		}
		wcfg.Target = e.server.NetHost.Addr(7000)
	} else {
		rt := core.NewRuntime(e.lynxPlatform(c.plat))
		wcfg.Target = deployLynxLeNet(e, rt, e.gpu, sharedLeNet(), 7000, c.proto)
		if err := rt.Start(); err != nil {
			panic(err)
		}
	}
	res := e.measure(wcfg)
	e.tb.Sim.Shutdown()
	return res
}

// lenetRuns measures each platform over proto twice: saturated by 3
// closed-loop clients and at low load with one.
func lenetRuns(cfg Config, proto core.Proto, plats ...string) map[lenetCell]workload.Result {
	var pts []lenetCell
	for _, plat := range plats {
		pts = append(pts, lenetCell{plat, proto, 3}, lenetCell{plat, proto, 1})
	}
	return measureAll(cfg, pts)
}

// fig8a measures the LeNet server three ways and reports throughput plus the
// latency distribution at maximum throughput, like Figure 8a.
func fig8a(cfg Config) *Report {
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
	res := lenetRuns(cfg, core.UDP, platHostCentric, platLynxBF, platLynx1Xeon)
	for _, row := range rows {
		sat, lowLoad := res[lenetCell{row.plat, core.UDP, 3}], res[lenetCell{row.plat, core.UDP, 1}]
		r.AddRow(row.plat, sat.Throughput(), lowLoad.Hist.P90(), lowLoad.Hist.P99(),
			row.paperTput, row.paperP90)
	}
	pm := model.Default()
	maxRate := float64(time.Second) / float64(pm.LeNetServiceK40+pm.DynamicParallelismLaunch)
	r.AddRow("theoretical max (1 GPU)", maxRate, "", "", "3.6K", "")
	r.Note("throughput from 3 closed-loop clients (saturation); latency percentiles from a single-client run")
	return r
}

// fig8aTCP is the §6.3 TCP variant.
func fig8aTCP(cfg Config) *Report {
	r := &Report{
		ID:      "fig8a-tcp",
		Title:   "LeNet service over TCP (§6.3)",
		Columns: []string{"req/s", "p90 low-load", "paper req/s", "paper latency"},
	}
	res := lenetRuns(cfg, core.TCP, platLynxBF, platLynx1Xeon)
	r.AddRow(platLynxBF, res[lenetCell{platLynxBF, core.TCP, 3}].Throughput(),
		res[lenetCell{platLynxBF, core.TCP, 1}].Hist.P90(), "3.1K", "346µs")
	r.AddRow(platLynx1Xeon, res[lenetCell{platLynx1Xeon, core.TCP, 3}].Throughput(),
		res[lenetCell{platLynx1Xeon, core.TCP, 1}].Hist.P90(), "3.3K", "322µs")
	r.Note("paper: TCP costs ~10%% throughput on BlueField and ~5%% on Xeon vs UDP; in this model the")
	r.Note("penalty appears as added per-request latency while single-GPU throughput stays GPU-bound")
	return r
}

// scaleoutCell is one Fig. 8b deployment: the LeNet service on 4 K80 GPUs
// local to the BlueField plus remote more behind remote hosts' RDMA NICs,
// 4 per host, one mqueue per GPU in one round-robin service.
type scaleoutCell struct{ remote int }

func (c scaleoutCell) run(cfg Config) workload.Result {
	const local = 4
	window := cfg.window(50 * time.Millisecond)
	e := newEnv(cfg)
	rt := core.NewRuntime(e.bf.Platform(7))
	var gpus []*accel.GPU
	for i := 0; i < local; i++ {
		gpus = append(gpus, e.server.AddGPU(fmt.Sprintf("gpu-l%d", i), accel.K80Half, false, "server1"))
	}
	var remotes []*snic.Machine
	for m := 0; m*4 < c.remote; m++ {
		remotes = append(remotes, e.tb.NewMachine(fmt.Sprintf("server%d", m+2), 6))
	}
	for i := 0; i < c.remote; i++ {
		gpus = append(gpus, remotes[i/4].AddGPU(fmt.Sprintf("gpu-r%d", i), accel.K80Half, false, "server1"))
	}
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
	for gi, g := range gpus {
		launchLeNet(e, g, handles[gi].AccelQueues()[0], sharedLeNet())
	}
	rt.Start()
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: svc.Addr(), Payload: lenetPayload,
		Body: lenetBody, Clients: 3 * len(gpus), Duration: window, Warmup: window / 5,
	})
	e.tb.Sim.Shutdown()
	return res
}

// fig8b scales the LeNet service across 12 K80 GPUs in three machines: 4
// local to the BlueField, then 4 and 8 more behind remote hosts' RDMA NICs.
func fig8b(cfg Config) *Report {
	r := &Report{
		ID:      "fig8b",
		Title:   "LeNet scaleout to remote K80 GPUs (Fig. 8b)",
		Columns: []string{"req/s", "median latency", "paper req/s"},
	}
	res := measureAll(cfg, []scaleoutCell{{0}, {4}, {8}})
	for _, row := range []struct {
		name   string
		remote int
		paper  string
	}{{"4 local", 0, "~13K"}, {"4 local + 4 remote", 4, "~26K"}, {"4 local + 8 remote", 8, "~40K"}} {
		r.AddRow(row.name, res[scaleoutCell{row.remote}].Throughput(), res[scaleoutCell{row.remote}].Hist.Median(), row.paper)
	}
	r.AddRow("scaling 12 vs 4", speedup(res[scaleoutCell{8}].Throughput(), res[scaleoutCell{0}].Throughput()), "", "3.0")
	r.Note("paper: linear scaling regardless of GPU location; remote GPUs add ~8µs latency")
	return r
}

// delayCell is one Fig. 8c cell: gpus emulated GPUs — per §6.3, K80-speed
// delay kernels on one physical GPU, one mqueue each, each registered as its
// own accelerator context — served over proto by Lynx on plat. run
// measures its throughput in req/s.
type delayCell struct {
	plat  string
	proto core.Proto
	gpus  int
}

func (c delayCell) run(cfg Config) float64 {
	window := cfg.window(30 * time.Millisecond)
	e := newEnv(cfg)
	rt := core.NewRuntime(e.lynxPlatform(c.plat))
	var handles []*core.AccelHandle
	var qs []*mqueue.AccelQueue
	for i := 0; i < c.gpus; i++ {
		h, err := rt.Register(e.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 96}, 1)
		if err != nil {
			panic(err)
		}
		handles, qs = append(handles, h), append(qs, h.AccelQueues()[0])
	}
	svc, err := rt.AddService(c.proto, 7000, nil, 1, handles...)
	if err != nil {
		panic(err)
	}
	if err := e.gpu.Serve(e.tb.Sim, qs, 0, e.params.LeNetServiceK80, nil); err != nil {
		panic(err)
	}
	rt.Start()
	res := e.measure(workload.Config{
		Proto: protoToWorkload(c.proto), Target: svc.Addr(), Payload: 64,
		Clients: min(3*c.gpus, 360), Duration: window, Warmup: window / 5,
		Timeout: 500 * time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return res.Throughput()
}

// fig8c reproduces the scalability projection: emulated LeNet delay kernels
// (the paper's own methodology) on an increasing number of GPUs, for UDP and
// TCP, with Lynx on BlueField vs one Xeon core.
func fig8c(cfg Config) *Report {
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
	var pts []delayCell
	for _, s := range series {
		for _, n := range counts {
			pts = append(pts, delayCell{s.plat, s.proto, n})
		}
	}
	tput := measureAll(cfg, pts)
	perGPU := float64(time.Second) / float64(model.Default().LeNetServiceK80)
	for _, s := range series {
		cells := make([]any, len(counts))
		for i, n := range counts {
			v := tput[delayCell{s.plat, s.proto, n}]
			cells[i] = fmt.Sprintf("%s (%.0f%%)", fmtFloat(v), 100*v/(perGPU*float64(n)))
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
