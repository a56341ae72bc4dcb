// Package snic assembles the paper's testbed: physical machines with Xeon
// CPUs, PCIe switches and ConnectX NICs; the Mellanox BlueField SmartNIC
// (8 ARM cores behind an internal PCIe switch, multi-homed on the network,
// Figure 2b); and the Mellanox Innova bump-in-the-wire FPGA SmartNIC running
// the NICA-based AFU (Figure 2a, §5.2).
//
// It provides the Platform values the Lynx runtime (internal/core) executes
// on, and the specialized Innova receive-path server.
package snic

import (
	"fmt"
	"time"

	"lynx/internal/accel"
	"lynx/internal/check"
	"lynx/internal/core"
	"lynx/internal/cpuarch"
	"lynx/internal/fabric"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/profile"
	"lynx/internal/rdma"
	"lynx/internal/sim"
)

// Testbed is one simulated deployment, one node or a rack of N: a network
// switch, an InfiniBand/Ethernet backbone on the PCIe fabric graph, any
// number of machines, and the deployment's observability planes, rollups
// and load path (deployment.go). lynx.Cluster, cluster.Rack and the
// experiments' testbeds are views over one.
type Testbed struct {
	Sim    *sim.Sim
	Params *model.Params
	Net    *netstack.Network
	Fab    *fabric.Fabric
	// IB is the wire backbone joining all NIC devices for RDMA traffic
	// (the same physical SN2100 switch as Net; modelled separately because
	// client traffic and RDMA use different stacks).
	IB *fabric.Switch
	// Faults is the deployment-wide fault plan, consulted by the netstack,
	// every RDMA engine and every accelerator. Nil (the default) injects
	// nothing.
	Faults *fault.Plan
	// Check is the deployment-wide invariant checker installed by
	// EnableInvariants. Nil (the default) checks nothing; Platform
	// constructors and the Innova serve path thread it through to the
	// runtime and every mqueue.
	Check *check.Checker

	// planes[i] is node i's observability plane (nil until Arm).
	planes []*profile.Profile
}

// NewTestbed creates an empty deployment with no fault injection and no
// invariant checker.
func NewTestbed(seed uint64, p *model.Params) *Testbed {
	return NewTestbedWith(seed, p, fault.Config{}, nil)
}

// NewTestbedWith creates an empty deployment whose layers consult a fault
// plan built from fc and, when ck is enabled, check their invariants against
// ck. The plan draws from its own seeded stream, so enabling faults perturbs
// nothing else and identical (seed, fc) pairs replay exactly.
func NewTestbedWith(seed uint64, p *model.Params, fc fault.Config, ck *check.Checker) *Testbed {
	s := sim.New(sim.Config{Seed: seed})
	f := fabric.New()
	tb := &Testbed{
		Sim:    s,
		Params: p,
		Net:    netstack.New(s, p),
		Fab:    f,
		IB:     f.AddSwitch("wire-backbone"),
	}
	if fc.Enabled() {
		tb.Faults = fault.NewPlan(fc)
		tb.Net.SetFaults(tb.Faults)
	}
	tb.EnableInvariants(ck)
	return tb
}

// EnableInvariants installs ck as the testbed-wide invariant checker: the
// netstack registers its conservation finishers, the simulator's virtual-time
// sanity check is added, and ck.Finalize runs automatically when the
// simulation shuts down. Platforms and Innova servers
// created after this call thread ck through to the runtime and mqueues.
// A nil/disabled ck is a no-op.
func (tb *Testbed) EnableInvariants(ck *check.Checker) {
	if !ck.Enabled() {
		return
	}
	tb.Check = ck
	tb.Net.RegisterInvariants(ck)
	ck.AddFinisher("sim.time-monotonic", func(fail func(string, ...any)) {
		if n := tb.Sim.TimeRegressions(); n > 0 {
			fail("%d events dispatched before the clock they were scheduled at", n)
		}
	})
	tb.Sim.OnShutdown(func() { ck.Finalize() })
}

// Machine is one physical server: Xeon cores, a PCIe switch, a ConnectX NIC
// (RDMA-capable, on the wire), and a CUDA driver instance.
type Machine struct {
	TB      *Testbed
	Name    string
	CPU     *cpuarch.Machine
	Switch  *fabric.Switch
	NIC     *fabric.Device
	RDMA    *rdma.Engine
	NetHost *netstack.Host
	Driver  *accel.Driver

	// wire is the switch this machine's NIC devices cable into: the flat
	// backbone (tb.IB) for single-rack testbeds, or a ToR switch for
	// machines placed with NewMachineAt.
	wire *fabric.Switch
}

// NewMachine adds a server with the given number of Xeon cores, cabled
// directly into the wire backbone.
func (tb *Testbed) NewMachine(name string, cores int) *Machine {
	return tb.newMachine(name, cores, tb.IB)
}

// AddToR adds a named top-of-rack switch uplinked to the wire backbone.
// Machines placed at the ToR with NewMachineAt reach each other in one
// rack-local hop; traffic to machines outside the rack crosses the uplink.
func (tb *Testbed) AddToR(name string) *fabric.Switch {
	p := tb.Params
	return tb.Fab.AddToR(name, tb.IB, p.WirePropagation, p.WireBandwidth)
}

// NewMachineAt is NewMachine with the machine's NICs cabled into a rack
// switch instead of directly into the backbone.
func (tb *Testbed) NewMachineAt(name string, cores int, tor *fabric.Switch) *Machine {
	return tb.newMachine(name, cores, tor)
}

func (tb *Testbed) newMachine(name string, cores int, wire *fabric.Switch) *Machine {
	p := tb.Params
	sw := tb.Fab.AddSwitch(name + "/pcie")
	nic := tb.Fab.AddDevice(name+"/nic", nil)
	tb.Fab.Connect(nic, sw, p.PCIeSwitchLatency, p.PCIeBandwidth)
	tb.Fab.Connect(nic, wire, p.WirePropagation, p.WireBandwidth)
	m := &Machine{
		TB:      tb,
		Name:    name,
		CPU:     cpuarch.New(tb.Sim, p, name+"/cpu", model.XeonCore, cores),
		Switch:  sw,
		NIC:     nic,
		RDMA:    rdma.NewEngine(tb.Sim, p, tb.Fab, nic),
		NetHost: tb.Net.AddHost(name),
		Driver:  accel.NewDriver(tb.Sim, p),
		wire:    wire,
	}
	m.RDMA.SetFaults(tb.Faults)
	return m
}

// AddGPU attaches a GPU to the machine's PCIe switch. snicHost names the
// machine running the Lynx SNIC: when it differs from this machine, the GPU
// is remote from Lynx's perspective (§5.5) and its QPs carry the network
// penalty.
func (m *Machine) AddGPU(name string, gmodel accel.GPUModel, relaxed bool, snicHost string) *accel.GPU {
	cfg := accel.GPUConfig{Model: gmodel, Relaxed: relaxed, MaxSkew: 10 * time.Microsecond,
		Faults: m.TB.Faults}
	if snicHost != m.Name {
		cfg.RemoteHost = m.Name
	}
	g := accel.NewGPU(m.TB.Sim, m.TB.Params, m.TB.Fab, m.Driver, name, cfg)
	m.TB.Fab.Connect(g.Device(), m.Switch, m.TB.Params.PCIeSwitchLatency, m.TB.Params.PCIeBandwidth)
	return g
}

// AddVCA attaches an Intel VCA to the machine.
func (m *Machine) AddVCA(name string) *accel.VCA {
	v := accel.NewVCA(m.TB.Sim, m.TB.Params, m.TB.Fab, name)
	v.SetFaults(m.TB.Faults)
	m.TB.Fab.Connect(v.Device(), m.Switch, m.TB.Params.PCIeSwitchLatency, m.TB.Params.PCIeBandwidth)
	return v
}

// AddClient adds a client-only host to the network (sockperf machines).
func (tb *Testbed) AddClient(name string) *netstack.Host {
	return tb.Net.AddHost(name)
}

// ---------------------------------------------------------------------------
// Lynx platforms

// BlueField models the ARM SmartNIC of Figure 2b attached to a host machine:
// its NIC ASIC sits behind the BlueField-internal PCIe switch, the ARM
// complex runs Lynx, and the SNIC is multi-homed with its own address.
type BlueField struct {
	Host    *Machine
	ARM     *cpuarch.Machine
	NIC     *fabric.Device
	RDMA    *rdma.Engine
	NetHost *netstack.Host
}

// AttachBlueField plugs a BlueField into the machine.
func (m *Machine) AttachBlueField(name string) *BlueField {
	tb := m.TB
	p := tb.Params
	bfSwitch := tb.Fab.AddSwitch(name + "/pcie")
	nic := tb.Fab.AddDevice(name+"/nic-asic", nil)
	tb.Fab.Connect(nic, bfSwitch, p.PCIeSwitchLatency, p.PCIeBandwidth)
	tb.Fab.Connect(bfSwitch, m.Switch, p.PCIeLatency, p.PCIeBandwidth)
	tb.Fab.Connect(nic, m.wire, p.WirePropagation, p.WireBandwidth)
	bf := &BlueField{
		Host:    m,
		ARM:     cpuarch.New(tb.Sim, p, name+"/arm", model.ARMCore, 8),
		NIC:     nic,
		RDMA:    rdma.NewEngine(tb.Sim, p, tb.Fab, nic),
		NetHost: tb.Net.AddHost(name),
	}
	bf.RDMA.SetFaults(tb.Faults)
	return bf
}

// Platform returns a core.Platform running Lynx on the BlueField ARM cores.
// The paper dedicates 7 of the 8 cores (§6.1).
func (bf *BlueField) Platform(workers int) core.Platform {
	if workers <= 0 {
		workers = 7
	}
	return core.Platform{
		Sim:     bf.Host.TB.Sim,
		Params:  bf.Host.TB.Params,
		Machine: bf.ARM,
		NetHost: bf.NetHost,
		RDMA:    bf.RDMA,
		Workers: workers,
		Bypass:  true, // VMA, §5.1.1
		Check:   bf.Host.TB.Check,
	}
}

// HostPlatform returns a core.Platform running the same Lynx code on host
// Xeon cores ("source-compatible to run on X86", §5).
func (m *Machine) HostPlatform(workers int, bypass bool) core.Platform {
	return core.Platform{
		Sim:     m.TB.Sim,
		Params:  m.TB.Params,
		Machine: m.CPU,
		NetHost: m.NetHost,
		RDMA:    m.RDMA,
		Workers: workers,
		Bypass:  bypass,
		Check:   m.TB.Check,
	}
}

// ---------------------------------------------------------------------------
// Innova (FPGA, receive path)

// Innova models the bump-in-the-wire FPGA SmartNIC running the Lynx AFU on
// NICA (§5.2): every packet traverses the AFU pipeline at line rate and is
// steered into an mqueue through a UC QP custom ring; a host CPU helper
// thread refills the ring credits (the prototype's limitation).
type Innova struct {
	Host    *Machine
	NIC     *fabric.Device
	RDMA    *rdma.Engine
	NetHost *netstack.Host
	// pipeline is the AFU processing stage (one packet at a time at
	// InnovaPipeline per packet => 7.4 M pkt/s).
	pipeline *sim.Resource

	received, dropped, sent uint64
}

// AttachInnova plugs an Innova into the machine.
func (m *Machine) AttachInnova(name string) *Innova {
	tb := m.TB
	p := tb.Params
	nic := tb.Fab.AddDevice(name+"/fpga-nic", nil)
	tb.Fab.Connect(nic, m.Switch, p.PCIeSwitchLatency, p.PCIeBandwidth)
	tb.Fab.Connect(nic, m.wire, p.WirePropagation, p.WireBandwidth)
	in := &Innova{
		Host:     m,
		NIC:      nic,
		RDMA:     rdma.NewEngine(tb.Sim, p, tb.Fab, nic),
		NetHost:  tb.Net.AddHost(name),
		pipeline: sim.NewResource(tb.Sim, 1),
	}
	in.RDMA.SetFaults(tb.Faults)
	return in
}

// ServeUDP starts the receive-path AFU on a UDP port, steering packets
// round-robin into n mqueues allocated on the accelerator. It returns the
// accelerator-side queues. The send path is not implemented, as in the
// paper's prototype (§5.2); ServeUDPFullDuplex adds it.
func (in *Innova) ServeUDP(port uint16, acc accel.Accelerator, cfg mqueue.Config, n int) ([]*mqueue.AccelQueue, error) {
	qs, _, err := in.serve(port, acc, cfg, n, false)
	return qs, err
}

// ServeUDPFullDuplex implements the send path the paper's prototype lacks
// (§5.2 lists it as future work): a second AFU pipeline stage sweeps the TX
// rings and emits responses to the original senders, entirely in FPGA logic.
// It returns the accelerator-side queues and the group used for egress.
func (in *Innova) ServeUDPFullDuplex(port uint16, acc accel.Accelerator, cfg mqueue.Config, n int) ([]*mqueue.AccelQueue, error) {
	qs, _, err := in.serve(port, acc, cfg, n, true)
	return qs, err
}

func (in *Innova) serve(port uint16, acc accel.Accelerator, cfg mqueue.Config, n int, duplex bool) ([]*mqueue.AccelQueue, *mqueue.Group, error) {
	tb := in.Host.TB
	region, err := acc.Device().Mem.Alloc("innova-mq", mqueue.GroupFootprint(cfg, n))
	if err != nil {
		return nil, nil, err
	}
	// NICA uses an InfiniBand UC QP for the custom ring (§5.2), driven
	// directly by FPGA logic (no CPU issue cost, fully pipelined writes).
	qp := in.RDMA.CreateQP(acc.Device(), rdma.QPConfig{Kind: rdma.UC, Remote: acc.RemoteHost() != "", HWIssue: true})
	cfg.Check = tb.Check
	group, err := mqueue.NewGroup(region, 0, cfg, n, qp)
	if err != nil {
		return nil, nil, err
	}
	prof := acc.Profile()
	prof.Check = tb.Check
	accQs, err := mqueue.AttachGroup(region, 0, cfg, n, prof)
	if err != nil {
		return nil, nil, err
	}
	qp.AddCredits(n * cfg.Slots)
	sock, err := in.NetHost.UDPBind(port)
	if err != nil {
		return nil, nil, err
	}
	// The egress stage, when enabled, routes TX messages back to the
	// senders recorded at ingress.
	var pending []netQ
	if duplex {
		pending = make([]netQ, n)
		for i := range pending {
			pending[i].fifo = make([][]netstack.Addr, cfg.Slots)
		}
	}

	// Helper thread: refills UC credits in batches on a host CPU core
	// (§5.2: "requires a separate CPU thread to explicitly refill the QP
	// receive queue").
	const refillBatch = 32
	refill := sim.NewChan[struct{}](tb.Sim, 0)
	tb.Sim.Spawn("innova/helper", func(p *sim.Proc) {
		pendingCredits := 0
		for {
			refill.Get(p)
			pendingCredits++
			if pendingCredits >= refillBatch {
				in.Host.CPU.ExecOn(p, tb.Params.InnovaHelperRefill)
				qp.AddCredits(pendingCredits)
				pendingCredits = 0
			}
		}
	})

	// AFU: per-packet pipeline -> posted ring write. No CPU cost anywhere
	// on the receive path; ring-state refreshes are batched.
	tb.Sim.Spawn("innova/afu", func(p *sim.Proc) {
		next := 0
		sinceRefresh := 0
		for {
			dg := sock.Recv(p)
			in.pipeline.With(p, tb.Params.InnovaPipeline, nil)
			qi := next % n
			q := group.Queue(qi)
			next++
			sinceRefresh++
			// Refresh consumed-counters at a quarter of aggregate ring
			// capacity so stale flow control never reports rings full
			// while the accelerator is keeping up.
			if sinceRefresh >= n*cfg.Slots/4 {
				group.Refresh(p)
				sinceRefresh = 0
			}
			slot, err := q.PushAsync(p, dg.Payload, 0)
			if err != nil {
				in.dropped++
				continue
			}
			if duplex {
				pending[qi].fifo[slot] = append(pending[qi].fifo[slot], dg.From)
			}
			in.received++
			refill.TryPut(struct{}{})
		}
	})

	if duplex {
		// Egress AFU stage: sweep TX rings (batched header read, slot
		// reads) and emit responses at pipeline rate.
		tb.Sim.Spawn("innova/afu-tx", func(p *sim.Proc) {
			gate := group.ActivityGate()
			// The egress AFU drains each ring in spanning reads of up to the
			// CQ-drain budget per visit (one slot when unbatched); the
			// per-response pipeline charge is unchanged (the FPGA pipeline
			// is per-packet — only the ring-poll round trips amortize).
			txBuf := make([]mqueue.TxMsg, tb.Params.Batch.EffCQDrain())
			emit := func(p *sim.Proc, qi int, msg mqueue.TxMsg) {
				in.pipeline.With(p, tb.Params.InnovaPipeline, nil)
				fifo := pending[qi].fifo[msg.Corr]
				if len(fifo) == 0 {
					tb.Check.Failf("snic.orphan-response",
						"innova q%d: TX message for slot %d has no pending request", qi, msg.Corr)
					return
				}
				to := fifo[0]
				pending[qi].fifo[msg.Corr] = fifo[1:]
				sock.SendTo(to, msg.Payload)
				in.sent++
			}
			for {
				v := gate.Version()
				group.Refresh(p)
				drained := false
				for qi := 0; qi < n; qi++ {
					q := group.Queue(qi)
					for q.Ready() {
						k := q.PopTxMany(p, len(txBuf), txBuf)
						if k == 0 {
							break
						}
						drained = true
						for j := 0; j < k; j++ {
							emit(p, qi, txBuf[j])
						}
					}
					q.CommitTx(p)
				}
				if !drained {
					gate.Wait(p, v)
					p.Sleep(tb.Params.InnovaPipeline)
				}
			}
		})
	}
	return accQs, group, nil
}

// netQ tracks per-slot reply destinations for the duplex egress stage.
type netQ struct {
	fifo [][]netstack.Addr
}

// Stats reports packets steered into rings and packets dropped.
func (in *Innova) Stats() (received, dropped uint64) { return in.received, in.dropped }

// Sent reports responses emitted by the duplex egress stage.
func (in *Innova) Sent() uint64 { return in.sent }

// ---------------------------------------------------------------------------

// Validate sanity-checks a testbed topology (used by cmd/lynxtopo).
func (tb *Testbed) Validate(machines ...*Machine) error {
	for _, m := range machines {
		if m.TB != tb {
			return fmt.Errorf("snic: machine %s belongs to a different testbed", m.Name)
		}
		if _, ok := tb.Net.Host(m.Name); !ok {
			return fmt.Errorf("snic: machine %s missing from the network", m.Name)
		}
	}
	return nil
}
