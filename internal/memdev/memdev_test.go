package memdev

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"lynx/internal/sim"
)

func newSim() *sim.Sim { return sim.New(sim.Config{Seed: 1}) }

// readLocal returns a copy of the n visible bytes at off.
func readLocal(r *Region, off, n int) []byte {
	out := make([]byte, n)
	r.ReadLocalInto(off, out)
	return out
}

func TestRegionReadWrite(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "r", 64, Config{})
	r.WriteLocal(8, []byte("hello"))
	if got := readLocal(r, 8, 5); string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if got := readLocal(r, 0, 4); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("fresh region not zeroed: %v", got)
	}
}

func TestRegionBounds(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "r", 16, Config{})
	for _, f := range []func(){
		func() { r.WriteLocal(10, make([]byte, 10)) },
		func() { r.ReadLocalInto(-1, make([]byte, 4)) },
		func() { r.ReadLocalInto(0, make([]byte, 17)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected out-of-range panic")
				}
			}()
			f()
		}()
	}
}

func TestStrongOrderingIsImmediate(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "r", 32, Config{})
	r.WriteDMA(0, []byte{0xAB})
	if r.Byte(0) != 0xAB {
		t.Fatal("ordered DMA write must be visible immediately")
	}
	if r.PendingWrites() != 0 {
		t.Fatal("ordered region must not queue writes")
	}
}

// The §5.1 hazard: with relaxed ordering and no barrier, a doorbell written
// after the payload can become visible first.
func TestRelaxedOrderingCanReorder(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "gpu", 64, Config{Relaxed: true, MaxSkew: 10 * time.Microsecond})
	reordered := false
	s.Spawn("nic", func(p *sim.Proc) {
		for i := 0; i < 200 && !reordered; i++ {
			r.WriteLocal(0, make([]byte, 64)) // reset
			r.WriteDMA(0, []byte("payload!"))
			r.WriteDMA(63, []byte{1}) // doorbell
			// Poll like a GPU threadblock would.
			for r.Byte(63) == 0 {
				p.Sleep(500 * time.Nanosecond)
			}
			if string(readLocal(r, 0, 8)) != "payload!" {
				reordered = true
			}
			p.Sleep(20 * time.Microsecond) // let stragglers land
		}
	})
	s.Run()
	if !reordered {
		t.Fatal("relaxed region never exhibited doorbell/payload reordering in 200 trials")
	}
}

// The fix: a Flush (RDMA-read barrier) before the doorbell write makes the
// payload visible first, always.
func TestFlushBarrierPreventsReordering(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "gpu", 64, Config{Relaxed: true, MaxSkew: 10 * time.Microsecond})
	s.Spawn("nic", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			r.WriteLocal(0, make([]byte, 64))
			r.WriteDMA(0, []byte("payload!"))
			r.Flush() // write barrier
			r.WriteDMA(63, []byte{1})
			for r.Byte(63) == 0 {
				p.Sleep(500 * time.Nanosecond)
			}
			if string(readLocal(r, 0, 8)) != "payload!" {
				t.Errorf("iteration %d: corruption despite barrier", i)
				return
			}
			p.Sleep(20 * time.Microsecond)
		}
	})
	s.Run()
}

func TestReadDMAActsAsBarrier(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "gpu", 32, Config{Relaxed: true, MaxSkew: time.Second})
	r.WriteDMA(0, []byte{7})
	var got [1]byte
	if r.ReadDMA(0, got[:]); got[0] != 7 {
		t.Fatal("DMA read must observe committed writes")
	}
	if r.PendingWrites() != 0 {
		t.Fatal("DMA read must flush pending writes")
	}
}

func TestPendingVisibilityAdvancesWithClock(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "gpu", 32, Config{Relaxed: true, MaxSkew: 5 * time.Microsecond})
	done := false
	s.Spawn("t", func(p *sim.Proc) {
		r.WriteDMA(0, []byte{9})
		p.Sleep(5 * time.Microsecond) // >= MaxSkew: must be visible now
		if r.Byte(0) != 9 {
			t.Error("write not visible after MaxSkew elapsed")
		}
		done = true
	})
	s.Run()
	if !done {
		t.Fatal("proc did not run")
	}
}

func TestMemoryAllocator(t *testing.T) {
	s := newSim()
	m := NewMemory(s, "gpu0", 1024, true, Config{})
	if !m.BARCapable() || m.Device() != "gpu0" {
		t.Fatal("metadata wrong")
	}
	a := m.MustAlloc("rx", 512)
	if _, err := m.Alloc("rx", 16); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if _, err := m.Alloc("big", 600); err == nil {
		t.Fatal("over-capacity alloc must fail")
	}
	b := m.MustAlloc("tx", 512)
	if m.Used() != 1024 {
		t.Fatalf("used = %d", m.Used())
	}
	a.WriteLocal(0, []byte{1})
	if b.Byte(0) != 0 {
		t.Fatal("regions must not alias")
	}
	if got, ok := m.Region("rx"); !ok || got != a {
		t.Fatal("lookup failed")
	}
	m.Free("rx")
	if m.Used() != 512 {
		t.Fatalf("used after free = %d", m.Used())
	}
	if _, err := m.Alloc("again", 512); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

// Property: on a strongly ordered region, any interleaving of writes yields
// exactly last-writer-wins bytes.
func TestOrderedRegionLastWriterWins(t *testing.T) {
	prop := func(ops []struct {
		Off  uint8
		Val  byte
		Kind bool
	}) bool {
		s := newSim()
		r := NewRegion(s, "r", 256, Config{})
		shadow := make([]byte, 256)
		for _, op := range ops {
			if op.Kind {
				r.WriteLocal(int(op.Off), []byte{op.Val})
			} else {
				r.WriteDMA(int(op.Off), []byte{op.Val})
			}
			shadow[op.Off] = op.Val
		}
		return bytes.Equal(readLocal(r, 0, 256), shadow)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWatchFiresOnOverlap(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "r", 128, Config{})
	if r.Name() != "r" {
		t.Fatal("name")
	}
	gate := r.Watch(10, 10)
	v := gate.Version()
	r.WriteLocal(0, make([]byte, 5)) // disjoint
	if gate.Version() != v {
		t.Fatal("disjoint write fired the watcher")
	}
	r.WriteDMA(15, []byte{1}) // overlaps
	if gate.Version() == v {
		t.Fatal("overlapping write did not fire")
	}
	w, rd := r.Stats()
	if w != 2 || rd != 0 {
		t.Fatalf("stats writes=%d reads=%d", w, rd)
	}
}

func TestWatchRelaxedFiresAtVisibility(t *testing.T) {
	s := newSim()
	r := NewRegion(s, "r", 64, Config{Relaxed: true, MaxSkew: 5 * time.Microsecond})
	gate := r.Watch(0, 8)
	var firedAt sim.Time
	s.Spawn("waiter", func(p *sim.Proc) {
		v := gate.Version()
		r.WriteDMA(0, []byte{7})
		gate.Wait(p, v)
		firedAt = p.Now()
		if r.Byte(0) != 7 {
			t.Error("fired before visibility")
		}
	})
	s.Run()
	if firedAt == 0 && sim.Time(0) != firedAt {
		t.Fatal("never fired")
	}
}
