// Package memdev models accelerator-local memory: byte-addressable regions
// that can be exposed on PCIe through a BAR window and accessed by DMA peers.
//
// The package captures the one hardware subtlety the paper leans on (§5.1
// "Data consistency in GPU memory"): DMA writes from the NIC into GPU memory
// may become visible out of order with respect to each other. A Region can
// therefore be configured as weakly ordered, in which case each committed
// write gains visibility only after a bounded, pseudo-random delay; readers
// polling a doorbell can then observe the doorbell before the payload, which
// is exactly the corruption hazard the paper's RDMA-read write barrier
// exists to prevent.
package memdev

import (
	"fmt"
	"time"

	"lynx/internal/sim"
)

// Region is a contiguous range of device memory.
type Region struct {
	name    string
	buf     []byte
	sim     *sim.Sim
	relaxed bool
	maxSkew time.Duration
	pending []pendingWrite

	watchers []*watcher

	// buckets indexes watchers by fixed-size byte ranges so a write only
	// examines watchers that can overlap it, instead of scanning every
	// watcher on the region (a queue group region carries several watchers
	// per mqueue, so the linear scan was O(queues) per DMA write). A watcher
	// spanning multiple buckets appears in each; fireSeq deduplicates within
	// one fire.
	buckets [][]*watcher
	fireSeq uint64

	// stats
	writes, reads uint64
}

// watchBucketShift sizes the watcher index granularity (256-byte buckets):
// fine enough that a slot-sized write touches one or two buckets, coarse
// enough that the index stays small for multi-megabyte regions.
const watchBucketShift = 8

// watcher wakes a gate whenever a write overlaps its byte range. idx is the
// registration order, which fire preserves so that wake order — and with it
// the deterministic event sequence — is identical to a plain linear scan.
type watcher struct {
	off, n int
	idx    int
	seen   uint64
	gate   *sim.Gate
}

type pendingWrite struct {
	off       int
	data      []byte
	visibleAt sim.Time
}

// Config controls a region's consistency behaviour.
type Config struct {
	// Relaxed marks the region as weakly ordered for incoming DMA: each
	// write's visibility is delayed by a pseudo-random amount in
	// [0, MaxSkew]. Local (accelerator-side) accesses are always ordered.
	Relaxed bool
	// MaxSkew bounds the visibility delay of relaxed writes.
	MaxSkew time.Duration
}

// NewRegion allocates a zeroed region of the given size.
func NewRegion(s *sim.Sim, name string, size int, cfg Config) *Region {
	if size <= 0 {
		panic("memdev: region size must be positive")
	}
	return &Region{
		name:    name,
		buf:     make([]byte, size),
		sim:     s,
		relaxed: cfg.Relaxed,
		maxSkew: cfg.MaxSkew,
	}
}

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Size returns the region's capacity in bytes.
func (r *Region) Size() int { return len(r.buf) }

// check validates an access range.
func (r *Region) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(r.buf) {
		panic(fmt.Sprintf("memdev: access [%d,%d) out of range of %s (size %d)",
			off, off+n, r.name, len(r.buf)))
	}
}

// Watch returns a gate fired whenever a write overlapping [off, off+n)
// becomes visible. It lets simulated pollers block instead of spinning;
// callers re-add the modelled polling detection latency after waking.
func (r *Region) Watch(off, n int) *sim.Gate {
	r.check(off, n)
	w := &watcher{off: off, n: n, idx: len(r.watchers), gate: sim.NewGate(r.sim)}
	r.watchers = append(r.watchers, w)
	if n > 0 {
		if r.buckets == nil {
			nb := (len(r.buf) + (1 << watchBucketShift) - 1) >> watchBucketShift
			r.buckets = make([][]*watcher, nb)
		}
		for b := off >> watchBucketShift; b <= (off+n-1)>>watchBucketShift; b++ {
			r.buckets[b] = append(r.buckets[b], w)
		}
	}
	return w.gate
}

// fire wakes watchers overlapping the written range, in registration order.
func (r *Region) fire(off, n int) {
	if n <= 0 || len(r.watchers) == 0 {
		return
	}
	r.fireSeq++
	hi := (off + n - 1) >> watchBucketShift
	if hi >= len(r.buckets) {
		hi = len(r.buckets) - 1
	}
	// Collect overlapping watchers from the covered buckets, restoring
	// registration order (bucket lists are individually ordered, but a write
	// spanning buckets interleaves them). The hit set is almost always 0–2
	// watchers, so an insertion sort over a stack scratch buffer suffices.
	var scratch [8]*watcher
	hits := scratch[:0]
	for b := off >> watchBucketShift; b <= hi; b++ {
		for _, w := range r.buckets[b] {
			if w.seen == r.fireSeq || off >= w.off+w.n || w.off >= off+n {
				continue
			}
			w.seen = r.fireSeq
			hits = append(hits, w)
			for i := len(hits) - 1; i > 0 && hits[i-1].idx > hits[i].idx; i-- {
				hits[i-1], hits[i] = hits[i], hits[i-1]
			}
		}
	}
	for _, w := range hits {
		w.gate.Fire()
	}
}

// WriteLocal stores data with strong ordering (accelerator-side store).
func (r *Region) WriteLocal(off int, data []byte) {
	r.check(off, len(data))
	r.applyPending()
	copy(r.buf[off:], data)
	r.writes++
	r.fire(off, len(data))
}

// WriteDMA stores data as an incoming DMA write. On a relaxed region the
// write commits now but becomes visible to ReadLocalInto only after a bounded
// pseudo-random skew; Flush forces visibility.
func (r *Region) WriteDMA(off int, data []byte) {
	r.check(off, len(data))
	r.writes++
	if !r.relaxed || r.maxSkew <= 0 {
		r.applyPending()
		copy(r.buf[off:], data)
		r.fire(off, len(data))
		return
	}
	skew := time.Duration(r.sim.Rand().Int64N(int64(r.maxSkew) + 1))
	cp := make([]byte, len(data))
	copy(cp, data)
	at := r.sim.Now().Add(skew)
	r.pending = append(r.pending, pendingWrite{
		off:       off,
		data:      cp,
		visibleAt: at,
	})
	n := len(data)
	r.sim.At(at, func() { r.fire(off, n) })
}

// applyPending commits pending writes whose visibility time has arrived.
func (r *Region) applyPending() {
	if len(r.pending) == 0 {
		return
	}
	now := r.sim.Now()
	rest := r.pending[:0]
	for _, w := range r.pending {
		if w.visibleAt <= now {
			copy(r.buf[w.off:], w.data)
		} else {
			rest = append(rest, w)
		}
	}
	r.pending = rest
}

// Flush makes all pending DMA writes visible immediately. This models the
// paper's RDMA-read write barrier (§5.1): a read through the same path
// forces earlier posted writes to complete.
func (r *Region) Flush() {
	flushed := r.pending
	r.pending = r.pending[:0]
	for _, w := range flushed {
		copy(r.buf[w.off:], w.data)
	}
	for _, w := range flushed {
		r.fire(w.off, len(w.data))
	}
}

// ReadLocalInto is an accelerator-side load: it fills dst with the bytes at
// off, observing only writes that have become visible. The caller owns dst,
// so header and counter reads land in stack arrays and message reads in a
// reused receive buffer.
func (r *Region) ReadLocalInto(off int, dst []byte) {
	r.check(off, len(dst))
	r.applyPending()
	r.reads++
	copy(dst, r.buf[off:])
}

// ReadDMA is a DMA read of the region (e.g. the SNIC polling a TX ring)
// into dst, which it fills from off. DMA reads are performed by the NIC
// through the same ordered path as the barrier read, so they see all
// committed writes.
func (r *Region) ReadDMA(off int, dst []byte) {
	r.check(off, len(dst))
	r.Flush()
	r.reads++
	copy(dst, r.buf[off:])
}

// Byte reads one visible byte (convenience for doorbell polling).
func (r *Region) Byte(off int) byte {
	r.check(off, 1)
	r.applyPending()
	return r.buf[off]
}

// PendingWrites reports how many DMA writes are committed but not yet
// visible (0 on strongly ordered regions).
func (r *Region) PendingWrites() int { return len(r.pending) }

// Stats reports cumulative access counters.
func (r *Region) Stats() (writes, reads uint64) { return r.writes, r.reads }

// ---------------------------------------------------------------------------

// Memory is a device's memory: a simple bump allocator of named regions,
// with a flag for whether the device can expose them on its PCIe BAR
// (the paper's first hardware requirement, §4.4).
type Memory struct {
	sim       *sim.Sim
	device    string
	capacity  int
	used      int
	barCap    bool
	regions   map[string]*Region
	regionCfg Config
}

// NewMemory creates a device memory of the given capacity. barCapable
// reports whether regions can be mapped for peer-to-peer PCIe access.
func NewMemory(s *sim.Sim, device string, capacity int, barCapable bool, cfg Config) *Memory {
	return &Memory{
		sim:       s,
		device:    device,
		capacity:  capacity,
		barCap:    barCapable,
		regions:   make(map[string]*Region),
		regionCfg: cfg,
	}
}

// BARCapable reports whether the device can expose memory on PCIe.
func (m *Memory) BARCapable() bool { return m.barCap }

// Device returns the owning device name.
func (m *Memory) Device() string { return m.device }

// Alloc carves a new region out of the device memory.
func (m *Memory) Alloc(name string, size int) (*Region, error) {
	if _, dup := m.regions[name]; dup {
		return nil, fmt.Errorf("memdev: region %q already exists on %s", name, m.device)
	}
	if m.used+size > m.capacity {
		return nil, fmt.Errorf("memdev: %s out of memory (%d used, %d requested, %d capacity)",
			m.device, m.used, size, m.capacity)
	}
	m.used += size
	r := NewRegion(m.sim, m.device+"/"+name, size, m.regionCfg)
	m.regions[name] = r
	return r, nil
}

// MustAlloc is Alloc that panics on failure, for initialization code.
func (m *Memory) MustAlloc(name string, size int) *Region {
	r, err := m.Alloc(name, size)
	if err != nil {
		panic(err)
	}
	return r
}

// Region looks up a region by name.
func (m *Memory) Region(name string) (*Region, bool) {
	r, ok := m.regions[name]
	return r, ok
}

// Free releases a region's accounting (the region itself must no longer be
// used).
func (m *Memory) Free(name string) {
	if r, ok := m.regions[name]; ok {
		m.used -= r.Size()
		delete(m.regions, name)
	}
}

// Used reports allocated bytes.
func (m *Memory) Used() int { return m.used }
