package experiments

import (
	"time"

	"lynx/internal/accel"
	"lynx/internal/core"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

func init() {
	register("ext-integrated-nic", "extension: accelerator with integrated NIC — self-hosted stack vs Lynx (§4.5)", extIntegratedNIC)
}

// integratedNICCell is the §4.5 accelerator with an integrated NIC
// (Goya-style) and 16 compute units at 100 µs/request, served over TCP:
// either its own 2-core scalar complex runs the TCP stack —
// "resource-demanding and inefficient" — or, with lynx set, a shared Lynx
// SNIC terminates TCP and feeds it through mqueues like any remote
// accelerator.
type integratedNICCell struct{ lynx bool }

const (
	integratedUnits   = 16
	integratedService = 100 * time.Microsecond
)

func (c integratedNICCell) run(cfg Config) workload.Result {
	window := cfg.window(30 * time.Millisecond)
	e := newEnv(cfg)
	accMachine := e.tb.NewMachine("goya1", 6)
	target := accMachine.NetHost.Addr(7000)
	if c.lynx {
		// The accelerator behaves like a remote accelerator reached through
		// its integrated RDMA NIC (§4.5: "in a way similar to how it manages
		// remote accelerators").
		acc := accMachine.AddGPU("goya-accel", accel.K40m, false, "server1")
		rt := core.NewRuntime(e.bf.Platform(7))
		h, err := rt.Register(acc, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, integratedUnits)
		if err != nil {
			panic(err)
		}
		svc, err := rt.AddService(core.TCP, 7000, nil, integratedUnits, h)
		if err != nil {
			panic(err)
		}
		if err := acc.Serve(e.tb.Sim, h.AccelQueues(), 0, integratedService, nil); err != nil {
			panic(err)
		}
		rt.Start()
		target = svc.Addr()
	} else {
		// The accelerator's scalar complex: two wimpy (ARM-class) cores run
		// the TCP stack; compute units do the application work.
		scalar := sim.NewResource(e.tb.Sim, 2)
		tcpCost := model.ScaleCPU(e.params.TCPCost(model.XeonCore, false), model.ARMCore)
		computeUnits := sim.NewResource(e.tb.Sim, integratedUnits)
		accMachine.NetHost.MustTCPListen(7000).Serve("goya", func(p *sim.Proc, msg, out []byte) []byte {
			scalar.With(p, tcpCost, nil)                 // rx stack
			computeUnits.With(p, integratedService, nil) // the kernel
			scalar.With(p, tcpCost, nil)                 // tx stack
			return append(out, msg...)
		})
	}
	res := e.measure(workload.Config{
		Proto: workload.TCP, Target: target, Payload: 64,
		Clients: 3 * integratedUnits, Duration: window, Warmup: window / 5,
		Timeout: 200 * time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return res
}

// extIntegratedNIC reproduces the §4.5 discussion of accelerators with an
// integrated NIC: self-hosting the TCP stack starves compute that Lynx
// leaves to the application.
func extIntegratedNIC(cfg Config) *Report {
	res := measureAll(cfg, []integratedNICCell{{false}, {true}})
	selfHosted, lynxManaged := res[integratedNICCell{false}], res[integratedNICCell{true}]
	r := &Report{
		ID:      "ext-integrated-nic",
		Title:   "NIC-integrated accelerator: self-hosted TCP stack vs Lynx management (§4.5)",
		Columns: []string{"req/s", "p99", "compute-unit utilization"},
	}
	maxRate := float64(integratedUnits) * float64(time.Second) / float64(integratedService)
	r.AddRow("self-hosted TCP stack", selfHosted.Throughput(), selfHosted.Hist.P99(),
		fmtFloat(100*selfHosted.Throughput()/maxRate)+"%")
	r.AddRow("Lynx-managed (remote mqueues)", lynxManaged.Throughput(), lynxManaged.Hist.P99(),
		fmtFloat(100*lynxManaged.Throughput()/maxRate)+"%")
	r.AddRow("Lynx advantage", speedup(lynxManaged.Throughput(), selfHosted.Throughput()), "", "")
	r.Note("§4.5: running TCP on the accelerator's scalar cores starves its compute; Lynx offloads the")
	r.Note("stack to the shared SNIC and reaches the device like a remote accelerator")
	return r
}

func init() {
	register("ext-innova-duplex", "extension: Innova send path (full-duplex FPGA echo, §5.2 future work)", extInnovaDuplex)
}

// duplexCell is a 240-queue GPU echo service fed through the Innova FPGA —
// receive AND send path in AFU logic — or, with innova unset, through Lynx
// on BlueField. run measures the responses per second under open-loop load.
type duplexCell struct{ innova bool }

func (c duplexCell) run(cfg Config) float64 {
	window := cfg.window(8 * time.Millisecond)
	const nq = 240
	e := newEnv(cfg)
	var target netstack.Addr
	var sent func() uint64
	rate := 1e6
	if c.innova {
		in := e.server.AttachInnova("innova1")
		qs, err := in.ServeUDPFullDuplex(7000, e.gpu, mqueue.Config{Slots: 16, SlotSize: 128}, nq)
		if err != nil {
			panic(err)
		}
		if err := e.gpu.Serve(e.tb.Sim, qs, 0, 0, nil); err != nil {
			panic(err)
		}
		target, sent, rate = in.NetHost.Addr(7000), in.Sent, 5e6
	} else {
		var rt *core.Runtime
		target, rt = e.echoDeployment(e.bf.Platform(7), nq, 0, 128)
		sent = func() uint64 { return rt.Stats().Responded }
	}
	return e.openLoopRate(target, rate, window, sent)
}

// extInnovaDuplex measures a complete echo service through the Innova FPGA
// against the same service on BlueField. The paper's prototype stopped at
// the receive path (7.4M pkt/s); this quantifies the §6.2 claim that "the
// more specialized the SNIC architecture, the higher its performance
// potential" end to end.
func extInnovaDuplex(cfg Config) *Report {
	res := measureAll(cfg, []duplexCell{{true}, {false}})
	innova, bluefield := res[duplexCell{true}], res[duplexCell{false}]
	r := &Report{
		ID:      "ext-innova-duplex",
		Title:   "Full-duplex echo through the FPGA AFU vs BlueField (extension of §5.2/§6.2)",
		Columns: []string{"echo/s"},
	}
	r.AddRow("Innova full duplex (AFU rx+tx)", innova)
	r.AddRow("Lynx on BlueField", bluefield)
	r.AddRow("specialization advantage", speedup(innova, bluefield))
	r.Note("the paper measured the FPGA receive path only (7.4M pkt/s); this implements the send path")
	r.Note("and shows the specialized pipeline sustaining Mpps full echoes where ARM cores top out ~0.3M")
	return r
}
