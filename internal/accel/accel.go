// Package accel models the compute accelerators Lynx drives: NVIDIA GPUs
// (K40m/K80) running persistent kernels or host-launched CUDA streams, and
// the Intel Visual Compute Accelerator with its three E3/SGX nodes.
//
// Accelerators expose two things to the rest of the system:
//
//   - a fabric.Device with BAR-mapped memory, which is all the Remote MQ
//     Manager needs (the SNIC runs no accelerator driver, §4.5), and
//   - an mqueue.AccessProfile describing the cost of the accelerator's own
//     accesses to mqueue memory.
package accel

import (
	"fmt"
	"time"

	"lynx/internal/fabric"
	"lynx/internal/fault"
	"lynx/internal/memdev"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/sim"
)

// Accelerator is the device-agnostic view Lynx manages (§4.5: portability).
type Accelerator interface {
	// Name identifies the accelerator.
	Name() string
	// Device returns the PCIe endpoint with the accelerator's BAR-mapped
	// memory in which mqueues are allocated.
	Device() *fabric.Device
	// Profile describes accelerator-side mqueue access costs.
	Profile() mqueue.AccessProfile
	// RemoteHost names the machine the accelerator lives in; empty when it
	// shares the SNIC's PCIe fabric (local).
	RemoteHost() string
}

// ---------------------------------------------------------------------------
// GPU

// GPUModel selects calibrated per-model characteristics.
type GPUModel int

const (
	// K40m is the NVIDIA Tesla K40m (240 resident threadblocks, §6.2).
	K40m GPUModel = iota
	// K80Half is one GK210 half of a Tesla K80 (slower; 3.3 K LeNet req/s
	// at most, §6.3).
	K80Half
)

// String names the model.
func (m GPUModel) String() string {
	if m == K80Half {
		return "K80"
	}
	return "K40m"
}

// GPU models one CUDA device.
type GPU struct {
	name   string
	modelK GPUModel
	dev    *fabric.Device
	params *model.Params
	driver *Driver
	remote string
	faults *fault.Plan

	maxTB    int
	resident int
	// exclusive serializes whole-GPU kernels (a LeNet inference saturates
	// the device, so concurrent inferences serialize, §6.3).
	exclusive *sim.Resource

	launches uint64
	busyTime time.Duration
}

// gpuMemBytes is a GPU's device memory capacity (only mqueue footprints
// are allocated from it in this simulation).
const gpuMemBytes = 1 << 26

// GPUConfig parameterizes NewGPU.
type GPUConfig struct {
	Model GPUModel
	// Relaxed marks the device memory as weakly ordered for incoming DMA
	// (the real K40m behaviour that motivates §5.1's barrier).
	Relaxed bool
	// MaxSkew bounds DMA visibility skew when Relaxed.
	MaxSkew time.Duration
	// RemoteHost marks the GPU as living in another machine, reached via
	// that machine's RDMA NIC (§5.5).
	RemoteHost string
	// Faults is the fault plan stalling this GPU's mqueue accesses inside
	// configured windows (nil injects nothing).
	Faults *fault.Plan
}

// NewGPU creates a GPU, attaches it to the fabric, and returns it. driver is
// the host driver instance used for host-centric stream operations (may be
// shared by several GPUs in one host, which is exactly the §6.2 bottleneck).
func NewGPU(s *sim.Sim, p *model.Params, fab *fabric.Fabric, driver *Driver, name string, cfg GPUConfig) *GPU {
	mem := memdev.NewMemory(s, name, gpuMemBytes, true, memdev.Config{
		Relaxed: cfg.Relaxed, MaxSkew: cfg.MaxSkew,
	})
	dev := fab.AddDevice(name, mem)
	maxTB := p.GPUMaxThreadblocks
	if cfg.Model == K80Half {
		maxTB = 208
	}
	return &GPU{
		name:      name,
		modelK:    cfg.Model,
		dev:       dev,
		params:    p,
		driver:    driver,
		remote:    cfg.RemoteHost,
		faults:    cfg.Faults,
		maxTB:     maxTB,
		exclusive: sim.NewResource(s, 1),
	}
}

// Name implements Accelerator.
func (g *GPU) Name() string { return g.name }

// Device implements Accelerator.
func (g *GPU) Device() *fabric.Device { return g.dev }

// RemoteHost implements Accelerator.
func (g *GPU) RemoteHost() string { return g.remote }

// Model returns the GPU model.
func (g *GPU) Model() GPUModel { return g.modelK }

// Profile implements Accelerator: GPU-side mqueue accesses are device-local
// loads/stores from the persistent kernel (§4.2).
func (g *GPU) Profile() mqueue.AccessProfile {
	return mqueue.AccessProfile{
		LocalAccess:  g.params.GPULocalAccess,
		PollInterval: g.params.GPUPollInterval,
		Accel:        g.name,
		Faults:       g.faults,
	}
}

// MaxThreadblocks reports the persistent-kernel residency limit.
func (g *GPU) MaxThreadblocks() int { return g.maxTB }

// TB is the context of one persistent-kernel threadblock.
type TB struct {
	gpu   *GPU
	index int
	proc  *sim.Proc
}

// Index returns the threadblock index.
func (tb *TB) Index() int { return tb.index }

// Proc returns the simulation process the threadblock runs on.
func (tb *TB) Proc() *sim.Proc { return tb.proc }

// Compute charges d of threadblock-local execution (a kernel body that
// occupies only this TB, like the paper's microbenchmark delay kernels).
func (tb *TB) Compute(d time.Duration) {
	tb.gpu.busyTime += d
	tb.proc.Sleep(d)
}

// RunExclusive charges d of whole-GPU execution: concurrent exclusive
// kernels serialize on the device. Used for LeNet-class kernels.
func (tb *TB) RunExclusive(d time.Duration) {
	tb.gpu.exclusive.Acquire(tb.proc)
	tb.gpu.busyTime += d
	tb.proc.Sleep(d)
	tb.gpu.exclusive.Release()
}

// SpawnChild launches a child kernel via dynamic parallelism (§6.3) that
// occupies the whole GPU for d: device-side launch overhead plus exclusive
// execution.
func (tb *TB) SpawnChild(d time.Duration) {
	tb.proc.Sleep(tb.gpu.params.DynamicParallelismLaunch)
	tb.RunExclusive(d)
}

// LaunchPersistent starts a persistent kernel of n threadblocks, each
// running body forever (or until the simulation shuts down). It fails if
// residency would exceed the device limit.
func (g *GPU) LaunchPersistent(s *sim.Sim, n int, body func(tb *TB)) error {
	if err := g.admit(n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(tbName(g, i), func(p *sim.Proc) {
			body(&TB{gpu: g, index: i, proc: p})
		})
	}
	return nil
}

// admit makes n more persistent threadblocks resident, or fails if that
// would exceed the device limit.
func (g *GPU) admit(n int) error {
	if g.resident+n > g.maxTB {
		return fmt.Errorf("accel: %s cannot host %d more TBs (%d/%d resident)",
			g.name, n, g.resident, g.maxTB)
	}
	g.resident += n
	g.launches++
	return nil
}

// tbName names threadblock i's process.
func tbName(g *GPU, i int) string { return fmt.Sprintf("%s/tb%d", g.name, i) }

// Serve launches the standard serving kernel: one persistent threadblock
// per queue, each looping receive → compute → respond (the paper's
// microbenchmark and application servers, §6). A request shorter than
// minLen is dropped uncharged. Each served request charges service of
// threadblock-local compute; a zero service charges nothing and costs no
// simulator event. handle then builds the response by appending to out, a
// buffer the threadblock reuses for every response (the send copies it into
// the TX ring), so a handler's side effects land at the instant the compute
// ends; a nil handle echoes the request. The response must not alias the
// request, whose RX payload is lent only until the queue's next receive
// (DESIGN.md §4.7). A threadblock ends when its queue refuses a send. Serve
// fails if the queues exceed the device's residency limit.
//
// Each threadblock is a run-to-completion Task driving the queue's task-form
// receive and send, so a served request resumes no coroutine; it consumes
// the scheduler slots a LaunchPersistent loop of Recv, Compute and Send
// would.
func (g *GPU) Serve(s *sim.Sim, qs []*mqueue.AccelQueue, minLen int, service time.Duration, handle func(req, out []byte) []byte) error {
	if err := g.admit(len(qs)); err != nil {
		return err
	}
	for i, aq := range qs {
		tb := &servingTB{gpu: g, aq: aq, minLen: minLen, service: service, handle: handle}
		tb.receivedK, tb.computedK, tb.sentK = tb.received, tb.computed, tb.sent
		s.SpawnTask(tbName(g, i), tb.start)
	}
	return nil
}

// servingTB is one threadblock of Serve's kernel: its loop as continuations
// bound once, and the request it is serving.
type servingTB struct {
	gpu     *GPU
	aq      *mqueue.AccelQueue
	t       *sim.Task
	minLen  int
	service time.Duration
	handle  func(req, out []byte) []byte
	req     mqueue.Msg
	out     []byte // the response buffer, reused: the send copies it

	receivedK func(mqueue.Msg)
	computedK func()
	sentK     func(error)
}

func (tb *servingTB) start(t *sim.Task) {
	tb.t = t
	tb.aq.RecvT(t, tb.receivedK)
}

// received drops a short request and receives again, or charges the
// compute.
func (tb *servingTB) received(m mqueue.Msg) {
	if len(m.Payload) < tb.minLen {
		tb.aq.RecvT(tb.t, tb.receivedK)
		return
	}
	tb.req = m
	if tb.service > 0 {
		tb.gpu.busyTime += tb.service
		tb.t.Sleep(tb.service, tb.computedK)
		return
	}
	tb.computed()
}

// computed builds the response and sends it.
func (tb *servingTB) computed() {
	resp := tb.req.Payload
	if tb.handle != nil {
		tb.out = tb.handle(tb.req.Payload, tb.out[:0])
		resp = tb.out
	}
	tb.aq.SendT(tb.t, uint16(tb.req.Slot), resp, 0, tb.sentK)
}

// sent receives the next request, or ends the threadblock (its task
// finishes with nothing armed) when the queue refused the send.
func (tb *servingTB) sent(err error) {
	if err == nil {
		tb.aq.RecvT(tb.t, tb.receivedK)
	}
}

// Resident reports currently resident persistent threadblocks.
func (g *GPU) Resident() int { return g.resident }

// BusyTime reports accumulated kernel execution time (TB-local compute plus
// exclusive and stream kernels; launch overheads excluded), for SM
// utilization probes.
func (g *GPU) BusyTime() time.Duration { return g.busyTime }

// ---------------------------------------------------------------------------
// Host-centric driver machinery

// Driver models the host-side CUDA driver shared by all streams (and all
// GPUs) in one machine. Its lock is the serialization point that makes
// "more threads result in a slowdown" (§6.2): every cudaMemcpyAsync holds it
// for CudaMemcpyAsyncSetup, every kernel launch for KernelLaunch and every
// stream synchronization for StreamSync, so host-centric throughput is capped
// at roughly one request per sum of the calls a request makes.
type Driver struct {
	params *model.Params
	lock   *sim.Resource
	ops    uint64
}

// NewDriver creates a driver instance for one host.
func NewDriver(s *sim.Sim, p *model.Params) *Driver {
	return &Driver{params: p, lock: sim.NewResource(s, 1)}
}

// call runs one driver API call of the given CPU cost under the global lock.
func (d *Driver) call(p *sim.Proc, cost time.Duration) {
	d.lock.Acquire(p)
	d.ops++
	p.Sleep(cost)
	d.lock.Release()
}

// Stream is a CUDA stream: the host-centric server's unit of pipelining.
type Stream struct {
	gpu *GPU
}

// NewStream creates a stream on the GPU.
func (g *GPU) NewStream() *Stream { return &Stream{gpu: g} }

// MemcpyH2D issues an async host-to-device copy: constant driver setup under
// the lock (§5.1: 7-8 µs), then DMA at PCIe bandwidth outside it.
func (st *Stream) MemcpyH2D(p *sim.Proc, bytes int) {
	d := st.gpu.driver
	d.call(p, d.params.CudaMemcpyAsyncSetup)
	p.Sleep(model.TransferTime(bytes, d.params.PCIeBandwidth) + d.params.PCIeLatency)
}

// MemcpyD2H issues the device-to-host copy.
func (st *Stream) MemcpyD2H(p *sim.Proc, bytes int) { st.MemcpyH2D(p, bytes) }

// LaunchN launches a dependent sequence of n kernels totalling exec GPU time
// (a TVM-compiled network is a chain of per-layer kernels; each launch pays
// the driver overhead, and the GPU sits idle between layers — the §3.1/§6.3
// inefficiency that dynamic parallelism avoids). For exclusive sequences the
// GPU is held across the whole chain, since every layer depends on the
// previous one.
func (st *Stream) LaunchN(p *sim.Proc, n int, exec time.Duration, exclusive bool) {
	if n <= 0 {
		n = 1
	}
	d := st.gpu.driver
	if exclusive {
		st.gpu.exclusive.Acquire(p)
	}
	for i := 0; i < n; i++ {
		d.call(p, d.params.KernelLaunch)
		p.Sleep(exec / time.Duration(n))
		st.gpu.busyTime += exec / time.Duration(n)
		st.gpu.launches++
	}
	if exclusive {
		st.gpu.exclusive.Release()
	}
}

// Sync waits for stream completion: a driver round under the lock.
func (st *Stream) Sync(p *sim.Proc) {
	d := st.gpu.driver
	d.call(p, d.params.StreamSync)
}

// ---------------------------------------------------------------------------
// Intel Visual Compute Accelerator

// VCA models the Intel VCA: three independent E3 processors behind a PCIe
// switch (§5.4). RDMA into VCA memory did not work in the paper's testbed,
// so mqueues live in *host* memory mapped into the VCA — which is why the
// access profile carries a PCIe-mapped penalty instead of a local-load cost.
type VCA struct {
	name   string
	dev    *fabric.Device
	params *model.Params
	nodes  int
	faults *fault.Plan
}

// SetFaults installs the fault plan stalling this VCA's mqueue accesses
// inside configured windows (nil injects nothing).
func (v *VCA) SetFaults(pl *fault.Plan) { v.faults = pl }

// NewVCA creates the VCA and its host-memory staging device on the fabric.
func NewVCA(s *sim.Sim, p *model.Params, fab *fabric.Fabric, name string) *VCA {
	// The mqueue region is allocated in host memory (BAR-capable from the
	// NIC's perspective) and mapped into the VCA nodes.
	mem := memdev.NewMemory(s, name+"-hostbuf", 1<<24, true, memdev.Config{})
	dev := fab.AddDevice(name, mem)
	return &VCA{name: name, dev: dev, params: p, nodes: 3}
}

// Name implements Accelerator.
func (v *VCA) Name() string { return v.name }

// Device implements Accelerator.
func (v *VCA) Device() *fabric.Device { return v.dev }

// RemoteHost implements Accelerator (the VCA of the paper is local).
func (v *VCA) RemoteHost() string { return "" }

// Nodes reports the number of E3 processors (3).
func (v *VCA) Nodes() int { return v.nodes }

// Profile implements Accelerator: every mqueue access from a VCA node
// crosses the PCIe switch into mapped host memory (the §5.4 workaround),
// so it costs PCIe latency rather than a local load.
func (v *VCA) Profile() mqueue.AccessProfile {
	return mqueue.AccessProfile{
		LocalAccess:  v.params.PCIeLatency + v.params.PCIeSwitchLatency,
		PollInterval: 2 * time.Microsecond,
		Accel:        v.name,
		Faults:       v.faults,
	}
}

// Enclave models an SGX enclave on one VCA node: entering and leaving costs
// SGX transitions; the body runs at E3 speed.
type Enclave struct {
	vca *VCA
}

// NewEnclave creates an enclave on the VCA.
func (v *VCA) NewEnclave() *Enclave { return &Enclave{vca: v} }

// ECall runs body inside the enclave: entry transition, scaled body cost,
// exit transition.
func (e *Enclave) ECall(p *sim.Proc, body time.Duration, fn func()) {
	prm := e.vca.params
	p.Sleep(prm.SGXTransition)
	p.Sleep(model.ScaleCPU(body, model.E3Core))
	if fn != nil {
		fn()
	}
	p.Sleep(prm.SGXTransition)
}
