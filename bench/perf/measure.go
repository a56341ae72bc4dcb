package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"lynx/internal/sim"
	"lynx/internal/trace"
)

const (
	// setups is how many times an untraced run builds and warms its
	// deployment: setup_s is the median, and the last deployment built is
	// the one measured.
	setups = 5
	// parts is how many equal spans of virtual time the window is cut into.
	// The host-time metrics are read from the fastest part: other processes
	// on the machine only ever add time, in bursts that last from a fraction
	// of a second to many seconds, and every part does the same simulated
	// work, so the fastest part is the least disturbed estimate of the cost.
	parts = 25
)

// result is one measured window of one deployment.
type result struct {
	// Simulated: deterministic for a given seed and window.
	ops, failed, wrong, retries uint64
	lat                         []time.Duration // sorted; one per request of the window answered correctly
	window                      time.Duration   // virtual
	answered                    uint64          // correct answers received in the window, whenever sent
	layer                       counters        // window deltas
	phaseWait, phaseServe       [trace.NumPhases]time.Duration
	lenet                       lenetStats

	// Simulator: host cost per answer in the window's fastest part, process
	// CPU time of the whole window, allocation over it, the live heap after
	// it, and the set-up of every build.
	wallPerReq, cpuPerReq float64
	cpu                   time.Duration
	mallocs, allocBytes   uint64
	heapBytes             uint64
	setup, build, warm    []time.Duration
}

// responses counts the window's requests that were answered correctly.
func (r *result) responses() uint64 { return uint64(len(r.lat)) }

// counters snapshots the public counters the per-layer metrics read.
type counters struct {
	events, rdmaOps, transfers   uint64
	ringFull, drops, coreRetries uint64
	replWrites, replRecords      uint64
	gpuBusy                      time.Duration
	gpuResident                  int
}

func (b *bed) counters() counters {
	c := counters{events: b.sim.Executed(), transfers: b.fab.Transfers()}
	for _, e := range b.engines {
		c.rdmaOps += e.Ops()
	}
	for _, rt := range b.rts {
		st := rt.Stats()
		c.drops += st.Dropped()
		// Every RX-ring-full push on a service queue is dropped with one of
		// these causes; the SNIC-side queues themselves are private to core.
		c.ringFull += st.DroppedOverflow + st.DroppedStalled
		c.coreRetries += st.Retries
	}
	for _, r := range b.repls {
		if r == nil {
			continue
		}
		st := r.Stats()
		c.replWrites += st.Writes
		c.replRecords += st.Records
		c.ringFull += st.Backlogged // a peer ingest ring was full
	}
	for _, g := range b.gpus {
		c.gpuBusy += g.BusyTime()
		c.gpuResident += g.Resident()
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		events: c.events - o.events, rdmaOps: c.rdmaOps - o.rdmaOps, transfers: c.transfers - o.transfers,
		ringFull: c.ringFull - o.ringFull, drops: c.drops - o.drops, coreRetries: c.coreRetries - o.coreRetries,
		replWrites: c.replWrites - o.replWrites, replRecords: c.replRecords - o.replRecords,
		gpuBusy: c.gpuBusy - o.gpuBusy, gpuResident: c.gpuResident,
	}
}

// clock is a snapshot of the process's wall and CPU time.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func readClock() (clock, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return clock{}, fmt.Errorf("getrusage: %w", err)
	}
	return clock{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}, nil
}

// measure builds and warms up w's deployment n times, then measures one
// window of scale × w.window virtual time on the last build. A non-nil
// profiler records exactly the window.
func measure(w workload, o buildOpts, scale float64, n int, prof *profiler) (*result, error) {
	win := time.Duration(float64(w.window) * scale)
	warm := win / 10
	r := &result{window: win}
	var b *bed
	var l *ledger
	for i := 0; i < n; i++ {
		if b != nil {
			b.sim.Shutdown()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if b, err = w.build(o); err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		l = &ledger{start: sim.Time(warm), end: sim.Time(warm + win)}
		if err := b.startClients(l); err != nil {
			b.sim.Shutdown()
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		t1 := time.Now()
		b.sim.RunUntil(l.start)
		t2 := time.Now()
		r.build = append(r.build, t1.Sub(t0))
		r.warm = append(r.warm, t2.Sub(t1))
		r.setup = append(r.setup, t2.Sub(t0))
	}
	defer b.sim.Shutdown()
	if l.err != nil {
		return nil, fmt.Errorf("%s: client: %w", w.name, l.err)
	}

	// The window's latency samples: about ten warm-ups' worth of requests.
	l.lat = make([]time.Duration, 0, 11*l.warmOps+16)
	runtime.GC()
	if prof != nil {
		if err := prof.begin(); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, a0 := b.counters(), l.answered
	start, err := readClock()
	if err != nil {
		return nil, err
	}
	wallPer, cpuPer := make([]float64, 0, parts), make([]float64, 0, parts)
	prev, prevAnswered := start, a0
	for i := 1; i <= parts; i++ {
		b.sim.RunUntil(l.start.Add(win * time.Duration(i) / parts))
		c, err := readClock()
		if err != nil {
			return nil, err
		}
		if k := float64(l.answered - prevAnswered); k > 0 {
			wallPer = append(wallPer, float64(c.wall.Sub(prev.wall))/k)
			cpuPer = append(cpuPer, float64(c.cpu-prev.cpu)/k)
		}
		prev, prevAnswered = c, l.answered
	}
	runtime.ReadMemStats(&m1)
	r.answered, r.layer = l.answered-a0, b.counters().sub(c0)
	if prof != nil {
		if err := prof.end(); err != nil {
			return nil, err
		}
	}
	if len(wallPer) == 0 {
		return nil, fmt.Errorf("%s: no request was answered correctly in the window", w.name)
	}
	r.cpu = prev.cpu - start.cpu
	r.wallPerReq, r.cpuPerReq = slices.Min(wallPer), slices.Min(cpuPer)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	// Follow the window's requests to their end.
	b.sim.RunUntilCond(l.end.Add(drainLimit), 100*time.Microsecond, func() bool { return l.running == 0 })
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBytes = ms.HeapAlloc
	runtime.KeepAlive(b)

	r.ops, r.retries, r.wrong = l.ops, l.retries, l.wrong
	// Requests still unresolved when the drain limit ran out failed too.
	r.failed = l.failed + (l.ops - l.failed - uint64(len(l.lat)))
	r.lat = l.lat
	slices.Sort(r.lat)
	r.lenet = b.lenet
	r.phaseMeans(b.spans)
	return r, nil
}

// phaseMeans averages each phase's wait and service time over the complete
// spans of every table.
func (r *result) phaseMeans(tables []*trace.SpanTable) {
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		var n uint64
		var wait, serve time.Duration
		for _, t := range tables {
			n += t.PhaseWaitHist(ph).Count()
			wait += t.PhaseWaitHist(ph).Sum()
			serve += t.PhaseServiceHist(ph).Sum()
		}
		if n > 0 {
			r.phaseWait[ph] = wait / time.Duration(n)
			r.phaseServe[ph] = serve / time.Duration(n)
		}
	}
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return quantile(s, 0.5)
}
