package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lynx/internal/model"
)

// AutoWorkers is the Config.Workers value that selects one worker per
// available CPU (GOMAXPROCS).
const AutoWorkers = -1

// workers resolves Config.Workers to a concrete worker count.
func (c Config) workers() int {
	switch {
	case c.Workers == AutoWorkers:
		return runtime.GOMAXPROCS(0)
	case c.Workers > 1:
		return c.Workers
	default:
		return 1
	}
}

// sweep runs point(i) for every i in [0, n), fanning the calls out across
// cfg.Workers goroutines (sequentially when Workers <= 1). Sweep points must
// be independent: each builds its own Sim, so runs share nothing but
// read-only inputs. Callers store results by index and assemble rows after
// sweep returns, which keeps reports byte-identical to a sequential run.
//
// A panic in any point is re-raised on the caller's goroutine once all
// workers have stopped, matching sequential error behavior.
func (c Config) sweep(n int, point func(i int)) {
	w := c.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			point(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &sweepPanic{val: r})
						}
					}()
					point(i)
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.(*sweepPanic).val)
	}
}

// sweepPanic boxes a recovered panic value (atomic.Value needs a consistent
// concrete type).
type sweepPanic struct{ val any }

// A point is one simulated measurement named by value: a comparable struct
// of a measurement helper's arguments (fig6Cell, isolationCell, ...) whose
// run method builds a fresh testbed, simulates it under cfg and returns the
// result. A point's run never asks the memo for another point, so the
// waits-for relation between points has no cycles.
type point[T any] interface {
	comparable
	run(cfg Config) T
}

// measure returns p's result under cfg. Within one Run the run's memo
// simulates each distinct point once, however many experiments, scorecard
// metrics and sweep workers ask for it. Every caller gets its own copy of
// results that carry mutable state (see workload.Result.Clone).
func measure[P point[T], T any](cfg Config, p P) T {
	if cfg.memo == nil {
		return p.run(cfg)
	}
	v := cfg.memo.get(cfg, p, func() any { return p.run(cfg) }).(T)
	if c, ok := any(v).(interface{ Clone() T }); ok {
		return c.Clone()
	}
	return v
}

// measureAll measures every point, fanned out across cfg.Workers, and
// returns the results keyed by point.
func measureAll[P point[T], T any](cfg Config, pts []P) map[P]T {
	vals := make([]T, len(pts))
	cfg.sweep(len(pts), func(i int) { vals[i] = measure(cfg, pts[i]) })
	out := make(map[P]T, len(pts))
	for i, p := range pts {
		out[p] = vals[i]
	}
	return out
}

// newRun returns cfg ready for one run of experiments: the Scale default
// applied and a fresh memo installed. With cfg.Top set the memo simulates
// every request, because each simulation must feed its slowest spans to the
// collector.
func (c Config) newRun() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	c.memo = &memo{}
	if c.Top == nil {
		c.memo.cells = make(map[memoKey]*memoCell)
	}
	return c
}

// memo is the run-scoped, single-flight store behind measure. Points are
// pure functions of their value and the Config fields in memoKey (every
// testbed seeds its Sim from cfg.Seed), so a result computed once stands for
// every later request of the same point.
type memo struct {
	mu        sync.Mutex
	cells     map[memoKey]*memoCell // nil: simulate every request
	simulated int
	fromMemo  int
}

// memoKey names a point under the Config fields its result depends on.
// fault.Config holds a slice, so it is keyed by its rendering.
type memoKey struct {
	point  any
	seed   uint64
	scale  float64
	faults string
	batch  model.BatchConfig
}

// memoCell holds one point's result; done closes once val is set or the
// simulation panicked (failed).
type memoCell struct {
	done   chan struct{}
	val    any
	failed bool
}

// get returns the memoized result of p under cfg, calling run to simulate
// it on the first request. Concurrent requests for a point in flight wait
// for it instead of simulating it again.
func (m *memo) get(cfg Config, p any, run func() any) any {
	m.mu.Lock()
	if m.cells == nil {
		m.simulated++
		m.mu.Unlock()
		return run()
	}
	k := memoKey{p, cfg.Seed, cfg.Scale, fmt.Sprintf("%+v", cfg.Faults), cfg.Batch}
	c, hit := m.cells[k]
	if hit {
		m.fromMemo++
	} else {
		c = &memoCell{done: make(chan struct{}), failed: true}
		m.cells[k] = c
		m.simulated++
	}
	m.mu.Unlock()
	if !hit {
		defer close(c.done)
		c.val = run()
		c.failed = false
		return c.val
	}
	<-c.done
	if c.failed {
		panic(fmt.Sprintf("experiments: point %+v panicked in another worker", p))
	}
	return c.val
}
