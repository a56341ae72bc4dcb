package rdma

import (
	"testing"

	"lynx/internal/memdev"
	"lynx/internal/sim"
)

// postCQE drives warm one-sided RDMA WRITEs through one RC QP from a task:
// each completion posts the next write until the batch is done, then the
// task parks on a start gate. The continuations are bound once.
type postCQE struct {
	s      *sim.Sim
	qp     *QP
	region *memdev.Region
	data   []byte
	left   int // writes still to post in the batch
	t      *sim.Task
	start  *sim.Gate // fired to begin a batch
	post   func()
	done   func(CQE)
}

func newPostCQE(tb testing.TB) *postCQE {
	r := newRig(false)
	w := &postCQE{s: r.s, qp: r.eng.CreateQP(r.gpu, QPConfig{Kind: RC}),
		region: r.gpu.Mem.MustAlloc("ring", 4096), data: make([]byte, 64), start: sim.NewGate(r.s)}
	w.post = func() { w.qp.WriteT(w.t, w.region, 0, w.data, w.done) }
	w.done = func(c CQE) {
		if c.Op != OpWrite || c.Dropped {
			tb.Fatalf("completion %+v, want a delivered write", c)
		}
		if w.left--; w.left > 0 {
			w.post()
		} else {
			w.start.WaitT(w.t, w.start.Version(), w.post)
		}
	}
	w.t = r.s.SpawnTask("snic", func(t *sim.Task) { w.start.WaitT(t, w.start.Version(), w.post) })
	r.s.Run()
	return w
}

// run completes n writes, one in flight at a time.
func (w *postCQE) run(n int) {
	w.left = n
	w.start.Fire()
	w.s.Run()
}

// BenchmarkRDMAWrite is the rdma layer's benchmark: one warm 64-byte
// one-sided WRITE posted from a task on an RC QP, through the engine and
// PCIe into device memory, to its CQE. events/op counts the simulator
// events one write costs.
func BenchmarkRDMAWrite(b *testing.B) {
	w := newPostCQE(b)
	w.run(100) // warm the QP's call frames
	start := w.s.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	w.run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(w.s.Executed()-start)/float64(b.N), "events/op")
	if w.left != 0 {
		b.Fatalf("%d writes never completed", w.left)
	}
}
