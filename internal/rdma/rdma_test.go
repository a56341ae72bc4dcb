package rdma

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"lynx/internal/fabric"
	"lynx/internal/memdev"
	"lynx/internal/model"
	"lynx/internal/sim"
)

type rig struct {
	s      *sim.Sim
	params model.Params
	fab    *fabric.Fabric
	nic    *fabric.Device
	gpu    *fabric.Device
	eng    *Engine
}

func newRig(relaxed bool) *rig {
	s := sim.New(sim.Config{Seed: 3})
	p := model.Default()
	f := fabric.New()
	cfg := memdev.Config{}
	if relaxed {
		cfg = memdev.Config{Relaxed: true, MaxSkew: 10 * time.Microsecond}
	}
	gpuMem := memdev.NewMemory(s, "gpu0", 1<<22, true, cfg)
	nic := f.AddDevice("nic", nil)
	gpu := f.AddDevice("gpu0", gpuMem)
	f.Connect(nic, gpu, p.PCIeLatency, p.PCIeBandwidth)
	return &rig{s: s, params: p, fab: f, nic: nic, gpu: gpu, eng: NewEngine(s, &p, f, nic)}
}

func TestWriteRead(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	r.s.Spawn("snic", func(p *sim.Proc) {
		qp.Write(p, region, 64, []byte("lynx"))
		if got := qp.Read(p, region, 64, 4); string(got) != "lynx" {
			t.Errorf("read back %q", got)
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	posted, completed := qp.Stats()
	if posted != 2 || completed != 2 {
		t.Fatalf("posted=%d completed=%d", posted, completed)
	}
}

func TestQPRequiresBARCapableTarget(t *testing.T) {
	s := sim.New(sim.Config{})
	p := model.Default()
	f := fabric.New()
	noBar := memdev.NewMemory(s, "acc", 1<<20, false, memdev.Config{})
	nic := f.AddDevice("nic", nil)
	acc := f.AddDevice("acc", noBar)
	f.Connect(nic, acc, p.PCIeLatency, p.PCIeBandwidth)
	eng := NewEngine(s, &p, f, nic)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: §4.4 requires BAR-exposable memory")
		}
	}()
	eng.CreateQP(acc, QPConfig{Kind: RC})
}

func TestWriteLatencyNearRDMAIssuePlusPCIe(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	var lat time.Duration
	r.s.Spawn("snic", func(p *sim.Proc) {
		start := p.Now()
		qp.Write(p, region, 0, make([]byte, 64))
		lat = p.Now().Sub(start)
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	// Issue (<1µs) + engine + PCIe: should be ~2-3 µs, far below the
	// 7.5 µs cudaMemcpyAsync setup — the Fig. 5 result.
	if lat < time.Microsecond || lat > 4*time.Microsecond {
		t.Fatalf("RDMA write latency %v, want ~2-3µs", lat)
	}
	if lat >= r.params.CudaMemcpyAsyncSetup {
		t.Fatalf("RDMA (%v) must beat cudaMemcpyAsync setup (%v)", lat, r.params.CudaMemcpyAsyncSetup)
	}
}

func TestRemoteQPPenalty(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	local := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	remote := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC, Remote: true})
	if local.Remote() || !remote.Remote() {
		t.Fatal("Remote flags wrong")
	}
	var localLat, remoteLat time.Duration
	r.s.Spawn("snic", func(p *sim.Proc) {
		start := p.Now()
		local.Write(p, region, 0, make([]byte, 64))
		localLat = p.Now().Sub(start)
		start = p.Now()
		remote.Write(p, region, 0, make([]byte, 64))
		remoteLat = p.Now().Sub(start)
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	gap := remoteLat - localLat
	// One extra network hop per posted write (~1.5 µs); the full §6.3 8 µs
	// shows up end-to-end across the ~5 remote operations per message.
	if gap < time.Microsecond || gap > 2500*time.Nanosecond {
		t.Fatalf("remote write penalty %v, want ~1.5µs", gap)
	}
}

func TestUCCreditsAndDrops(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: UC})
	qp.AddCredits(2)
	var results []bool
	r.s.Spawn("snic", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			cqe := qp.Write(p, region, i*8, []byte{byte(i + 1)})
			results = append(results, cqe.Dropped)
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	want := []bool{false, false, true, true}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("drop pattern %v, want %v", results, want)
		}
	}
	if qp.Dropped() != 2 || qp.Credits() != 0 {
		t.Fatalf("dropped=%d credits=%d", qp.Dropped(), qp.Credits())
	}
	// After a refill (the NICA helper thread), writes land again.
	qp.AddCredits(1)
	var r2 [1]byte
	region.ReadLocalInto(0, r2[:])
	if r2[0] != 1 {
		t.Fatalf("first write payload lost: %v", r2)
	}
}

func TestRCCreditPanics(t *testing.T) {
	r := newRig(false)
	r.gpu.Mem.MustAlloc("ring", 64)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding credits to RC QP")
		}
	}()
	qp.AddCredits(1)
}

func TestBarrierFlushesRelaxedWrites(t *testing.T) {
	r := newRig(true)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	var barLat time.Duration
	r.s.Spawn("snic", func(p *sim.Proc) {
		qp.Write(p, region, 0, []byte("payload!"))
		start := p.Now()
		qp.Barrier(p, region)
		barLat = p.Now().Sub(start)
		var got [8]byte
		if region.ReadLocalInto(0, got[:]); string(got[:]) != "payload!" {
			t.Errorf("payload invisible after barrier: %q", got)
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	// The barrier stalls its issuing context for most of the §5.1 5 µs
	// per-message workaround cost (the remainder is the extra doorbell
	// write, accounted at the mqueue layer).
	if barLat < 3500*time.Nanosecond || barLat > 5500*time.Nanosecond {
		t.Fatalf("barrier latency %v, want ~4.4µs", barLat)
	}
}

// Property: completions arrive on their reply channel in posting order with
// matching IDs and a completion for every post (RC reliability), for any op
// mix.
func TestRCOrderedCompletionProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		if len(ops) == 0 {
			return true
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := newRig(false)
		region := r.gpu.Mem.MustAlloc("ring", 65536)
		qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
		okCh := make(chan bool, 1)
		r.s.Spawn("snic", func(p *sim.Proc) {
			cqes := sim.NewChan[CQE](r.s, 0)
			for i, isWrite := range ops {
				if isWrite {
					qp.Post(p, WR{Op: OpWrite, Region: region, Offset: i * 8, Data: []byte{byte(i)}, ID: uint64(i), reply: cqes})
				} else {
					qp.Post(p, WR{Op: OpRead, Region: region, Offset: i * 8, Data: make([]byte, 1), ID: uint64(i), reply: cqes})
				}
			}
			good := true
			for i := range ops {
				cqe := cqes.Get(p)
				if cqe.ID != uint64(i) {
					good = false
				}
			}
			okCh <- good
		})
		r.s.RunUntil(sim.Time(time.Second))
		r.s.Shutdown()
		select {
		case ok := <-okCh:
			return ok
		default:
			return false
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEnginePipelineSharedAcrossQPs(t *testing.T) {
	r := newRig(false)
	regionA := r.gpu.Mem.MustAlloc("a", 4096)
	regionB := r.gpu.Mem.MustAlloc("b", 4096)
	qpA := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	qpB := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	var aDone, bDone sim.Time
	r.s.Spawn("a", func(p *sim.Proc) {
		qpA.Write(p, regionA, 0, make([]byte, 4096))
		aDone = p.Now()
	})
	r.s.Spawn("b", func(p *sim.Proc) {
		qpB.Write(p, regionB, 0, make([]byte, 4096))
		bDone = p.Now()
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if aDone == 0 || bDone == 0 {
		t.Fatal("writes did not finish")
	}
	if aDone == bDone {
		t.Fatal("engine pipeline should serialize concurrent WRs from different QPs")
	}
	if r.eng.Ops() != 2 {
		t.Fatalf("engine ops = %d", r.eng.Ops())
	}
}

func TestReadBackMatchesWrite(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 1<<16)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	r.s.Spawn("snic", func(p *sim.Proc) {
		qp.Write(p, region, 512, payload)
		got := qp.Read(p, region, 512, len(payload))
		if !bytes.Equal(got, payload) {
			t.Error("payload mismatch after RDMA round trip")
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
}

// A burst posted under one doorbell costs one issue charge and completes in
// posting order.
func TestPostManyCompletesInOrder(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	const n = 12
	cqes := sim.NewChan[CQE](r.s, 0)
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		wrs := make([]WR, n)
		for i := range wrs {
			wrs[i] = WR{Op: OpWrite, Region: region, Offset: i * 8, Data: []byte{byte(i)}, ID: uint64(100 + i), reply: cqes}
		}
		issueStart := tk.Now()
		qp.postManyT(tk, wrs, func() {
			if issue := tk.Now().Sub(issueStart); issue > r.params.RDMAIssue {
				t.Errorf("postManyT charged %v for %d WRs, want one issue cost (%v)", issue, n, r.params.RDMAIssue)
			}
		})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	for i := 0; i < n; i++ {
		cqe, ok := cqes.TryGet()
		if !ok {
			t.Fatalf("only %d of %d completions arrived", i, n)
		}
		if cqe.ID != uint64(100+i) {
			t.Fatalf("completion %d has ID %d, want %d (posting order)", i, cqe.ID, 100+i)
		}
	}
	if posted, completed := qp.Stats(); posted != n || completed != n {
		t.Fatalf("posted=%d completed=%d, want %d each", posted, completed, n)
	}
}

// PostAndWaitT suppresses signaling on non-checkpoint WQEs: a batch of n
// writes surfaces only its checkpoint completions, and its reply channel
// returns to the pool with nothing left in it.
func TestPostAndWaitUnsignaledNoCQLeak(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	const n = 10
	wrs := make([]WR, n)
	for i := range wrs {
		wrs[i] = WR{Op: OpWrite, Region: region, Offset: i * 8, Data: []byte{byte(i)}, ID: uint64(i)}
	}
	var last CQE
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		qp.PostAndWaitT(tk, wrs, 3, 4, func(c CQE) {
			last = c
			// All data must be visible once the final checkpoint completes.
			for i := 0; i < n; i++ {
				var got [1]byte
				if region.ReadLocalInto(i*8, got[:]); got[0] != byte(i) {
					t.Errorf("slot %d holds %d after checkpoint completion", i, got[0])
				}
			}
		})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if last.ID != n-1 {
		t.Errorf("PostAndWaitT returned CQE ID %d, want %d (the batch's last WR)", last.ID, n-1)
	}
	signaled := 0
	for _, wr := range wrs {
		if wr.reply != nil {
			signaled++
		}
	}
	if signaled != 3 {
		t.Errorf("%d WRs signaled, want 3 checkpoints (every 4th and the last)", signaled)
	}
	if len(qp.calls) != 1 || qp.calls[0].reply.Len() != 0 {
		t.Errorf("completion channel not returned empty: %d frames pooled", len(qp.calls))
	}
	if posted, completed := qp.Stats(); posted != n || completed != n {
		t.Fatalf("posted=%d completed=%d, want %d each", posted, completed, n)
	}
}
