package accel

import (
	"testing"
	"time"

	"lynx/internal/fabric"
	"lynx/internal/model"
	"lynx/internal/sim"
)

type rig struct {
	s      *sim.Sim
	params model.Params
	fab    *fabric.Fabric
	driver *Driver
}

func newRig() *rig {
	s := sim.New(sim.Config{Seed: 2})
	p := model.Default()
	return &rig{s: s, params: p, fab: fabric.New(), driver: NewDriver(s, &p)}
}

func (r *rig) gpu(name string, cfg GPUConfig) *GPU {
	return NewGPU(r.s, &r.params, r.fab, r.driver, name, cfg)
}

func TestGPUMetadata(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	if g.Name() != "gpu0" || g.Device() == nil || g.RemoteHost() != "" {
		t.Fatal("metadata wrong")
	}
	if g.MaxThreadblocks() != 240 {
		t.Fatalf("K40m TBs = %d, want 240 (§6.2)", g.MaxThreadblocks())
	}
	k80 := r.gpu("gpu1", GPUConfig{Model: K80Half, RemoteHost: "server2"})
	if k80.MaxThreadblocks() != 208 || k80.RemoteHost() != "server2" {
		t.Fatal("K80 config wrong")
	}
	if g.Model().String() != "K40m" || k80.Model().String() != "K80" {
		t.Fatal("model names wrong")
	}
	if !g.Device().Mem.BARCapable() {
		t.Fatal("GPU memory must be BAR-exposable (GPUDirect RDMA, §4.4)")
	}
}

func TestPersistentKernelResidencyLimit(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	if err := g.LaunchPersistent(r.s, 240, func(tb *TB) {}); err != nil {
		t.Fatal(err)
	}
	if err := g.LaunchPersistent(r.s, 1, func(tb *TB) {}); err == nil {
		t.Fatal("241st TB must be rejected")
	}
	if g.Resident() != 240 {
		t.Fatalf("resident = %d", g.Resident())
	}
	r.s.Run()
}

func TestThreadblocksRunConcurrently(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	var finish []sim.Time
	g.LaunchPersistent(r.s, 10, func(tb *TB) {
		tb.Compute(100 * time.Microsecond)
		finish = append(finish, tb.Proc().Now())
	})
	r.s.Run()
	if len(finish) != 10 {
		t.Fatalf("%d TBs finished", len(finish))
	}
	for _, f := range finish {
		if f != sim.Time(100*time.Microsecond) {
			t.Fatalf("TB finished at %v; single-TB kernels must not serialize", f)
		}
	}
}

func TestExclusiveKernelsSerialize(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	var finish []sim.Time
	g.LaunchPersistent(r.s, 3, func(tb *TB) {
		tb.RunExclusive(100 * time.Microsecond)
		finish = append(finish, tb.Proc().Now())
	})
	r.s.Run()
	if last := finish[len(finish)-1]; last != sim.Time(300*time.Microsecond) {
		t.Fatalf("3 exclusive kernels finished at %v, want 300µs", last)
	}
}

func TestDynamicParallelismCost(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	var elapsed time.Duration
	g.LaunchPersistent(r.s, 1, func(tb *TB) {
		start := tb.Proc().Now()
		tb.SpawnChild(r.params.LeNetServiceK40)
		elapsed = tb.Proc().Now().Sub(start)
	})
	r.s.Run()
	want := r.params.DynamicParallelismLaunch + r.params.LeNetServiceK40
	if elapsed != want {
		t.Fatalf("child kernel took %v, want %v", elapsed, want)
	}
}

// §3.2: the host-centric echo pipeline on a 100 µs kernel measures ~130 µs
// end to end — 30 µs of pure management overhead.
func TestHostCentricPipelineOverhead(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	st := g.NewStream()
	var elapsed time.Duration
	r.s.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		st.MemcpyH2D(p, 4)
		st.LaunchN(p, 1, 100*time.Microsecond, false)
		st.MemcpyD2H(p, 4)
		st.Sync(p)
		elapsed = p.Now().Sub(start)
	})
	r.s.Run()
	if elapsed < 125*time.Microsecond || elapsed > 140*time.Microsecond {
		t.Fatalf("pipeline %v, paper measures ~130µs", elapsed)
	}
}

// §6.2: the driver lock serializes concurrent streams — more worker threads
// do not add throughput.
func TestDriverLockSerializesStreams(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	const n = 8
	var done int
	var last sim.Time
	for i := 0; i < n; i++ {
		st := g.NewStream()
		r.s.Spawn("worker", func(p *sim.Proc) {
			st.MemcpyH2D(p, 64)
			st.LaunchN(p, 1, 10*time.Microsecond, false)
			st.MemcpyD2H(p, 64)
			st.Sync(p)
			done++
			last = p.Now()
		})
	}
	r.s.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	// Each request holds the lock for ≥ 2*7.5+10+5 = 30 µs; 8 requests
	// cannot finish faster than 240 µs no matter the parallelism.
	if last < sim.Time(240*time.Microsecond) {
		t.Fatalf("8 concurrent requests finished at %v; driver lock must serialize ~30µs each", last)
	}
	if r.driver.Ops() != uint64(4*n) {
		t.Fatalf("driver ops = %d, want %d", r.driver.Ops(), 4*n)
	}
}

func TestVCAProfileAndEnclave(t *testing.T) {
	r := newRig()
	v := NewVCA(r.s, &r.params, r.fab, "vca0")
	if v.Nodes() != 3 {
		t.Fatalf("VCA nodes = %d, want 3 (§5.4)", v.Nodes())
	}
	if v.RemoteHost() != "" || v.Name() != "vca0" {
		t.Fatal("metadata wrong")
	}
	// §5.4: mqueues live in mapped host memory, so accesses cost PCIe, not
	// a local load.
	if v.Profile().LocalAccess <= r.params.GPULocalAccess {
		t.Fatal("VCA mqueue access must be dearer than GPU-local access")
	}
	enc := v.NewEnclave()
	var elapsed time.Duration
	r.s.Spawn("node0", func(p *sim.Proc) {
		start := p.Now()
		ran := false
		enc.ECall(p, 5*time.Microsecond, func() { ran = true })
		elapsed = p.Now().Sub(start)
		if !ran {
			t.Error("enclave body did not run")
		}
	})
	r.s.Run()
	want := 2*r.params.SGXTransition + model.ScaleCPU(5*time.Microsecond, model.E3Core)
	if elapsed != want {
		t.Fatalf("ecall took %v, want %v", elapsed, want)
	}
}

func TestGPURelaxedMemoryConfig(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m, Relaxed: true, MaxSkew: 5 * time.Microsecond})
	reg := g.Device().Mem.MustAlloc("x", 64)
	reg.WriteDMA(0, []byte{1})
	if reg.PendingWrites() != 1 {
		t.Fatal("relaxed GPU memory must delay DMA visibility")
	}
}

func TestTBAccessorsAndProfiles(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	prof := g.Profile()
	if prof.LocalAccess != r.params.GPULocalAccess || prof.PollInterval != r.params.GPUPollInterval {
		t.Fatal("GPU access profile wrong")
	}
	var idx int
	var owner *GPU
	g.LaunchPersistent(r.s, 3, func(tb *TB) {
		if tb.Index() == 2 {
			idx = tb.Index()
			owner = tb.GPU()
		}
	})
	r.s.Run()
	if idx != 2 || owner != g {
		t.Fatal("TB accessors wrong")
	}
	if g.Launches() == 0 {
		t.Fatal("launch counter not incremented")
	}
	v := NewVCA(r.s, &r.params, r.fab, "vca9")
	if v.Device() == nil || v.Device().Name() != "vca9" {
		t.Fatal("VCA device wrong")
	}
}

// LaunchN charges each launch under the driver lock and keeps the GPU held
// across the dependent chain when exclusive.
func TestLaunchNChain(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	st := g.NewStream()
	var chainTime time.Duration
	r.s.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		st.LaunchN(p, 8, 80*time.Microsecond, true)
		chainTime = p.Now().Sub(start)
	})
	r.s.Run()
	// 8 launches x 10µs + 80µs of execution.
	want := 8*r.params.KernelLaunch + 80*time.Microsecond
	if chainTime != want {
		t.Fatalf("chain took %v, want %v", chainTime, want)
	}
	// n <= 0 behaves like a single launch.
	var single time.Duration
	r.s.Spawn("host2", func(p *sim.Proc) {
		start := p.Now()
		st.LaunchN(p, 0, 50*time.Microsecond, false)
		single = p.Now().Sub(start)
	})
	r.s.Run()
	if single != r.params.KernelLaunch+50*time.Microsecond {
		t.Fatalf("single launch %v", single)
	}
}
