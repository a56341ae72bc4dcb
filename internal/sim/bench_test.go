package sim

import (
	"testing"
	"time"
)

// BenchmarkSimEngine measures the raw discrete-event hot path: scheduling
// throughput (events executed per wall-clock second) and steady-state
// allocations for the three blocking substrates every simulated component is
// built from — timers, channel rendezvous, and resource handoff. One
// benchmark iteration advances one microsecond of virtual time.
//
// The unsuffixed timers/chan-pingpong/resource substrates run on the
// run-to-completion Task substrate (the execution model of the ported
// hot-path stages); the -coroutine variants keep the goroutine-per-process
// Proc substrate for comparison. Both must stay at 0 allocs/op.
func BenchmarkSimEngine(b *testing.B) {
	b.Run("timers", func(b *testing.B) {
		const nTasks = 256
		s := New(Config{Seed: 1})
		for i := 0; i < nTasks; i++ {
			s.SpawnTask("timer", func(t *Task) {
				var tick func()
				tick = func() { t.Sleep(time.Microsecond, tick) }
				tick()
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond)) // settle spawns
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		reportEventRate(b, nTasks)
		s.Shutdown()
	})

	b.Run("timers-coroutine", func(b *testing.B) {
		const nProcs = 256
		s := New(Config{Seed: 1})
		for i := 0; i < nProcs; i++ {
			s.Spawn("timer", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
				}
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond)) // settle spawns
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		reportEventRate(b, nProcs)
		s.Shutdown()
	})

	b.Run("chan-pingpong", func(b *testing.B) {
		const nPairs = 64
		s := New(Config{Seed: 1})
		for i := 0; i < nPairs; i++ {
			req := NewChan[int](s, 0)
			resp := NewChan[int](s, 0)
			s.SpawnTask("client", func(t *Task) {
				var tick, doPut, afterPut func()
				var onResp func(int)
				tick = func() { t.Sleep(time.Microsecond, doPut) }
				doPut = func() {
					if req.PutT(t, 1, afterPut) {
						afterPut()
					}
				}
				afterPut = func() {
					if _, ok := resp.GetT(t, onResp); ok {
						tick()
					}
				}
				onResp = func(int) { tick() }
				tick()
			})
			s.SpawnTask("server", func(t *Task) {
				var loop func()
				var onReq func(int)
				onReq = func(v int) {
					if resp.PutT(t, v, loop) {
						loop()
					}
				}
				loop = func() {
					if v, ok := req.GetT(t, onReq); ok {
						onReq(v)
					}
				}
				loop()
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		// Same nominal count as the -coroutine variant so events/sec deltas
		// compare the engines, not the accounting.
		reportEventRate(b, nPairs*5)
		s.Shutdown()
	})

	b.Run("chan-pingpong-coroutine", func(b *testing.B) {
		const nPairs = 64
		s := New(Config{Seed: 1})
		for i := 0; i < nPairs; i++ {
			req := NewChan[int](s, 0)
			resp := NewChan[int](s, 0)
			s.Spawn("client", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
					req.Put(p, 1)
					resp.Get(p)
				}
			})
			s.Spawn("server", func(p *Proc) {
				for {
					v := req.Get(p)
					resp.Put(p, v)
				}
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		// Per virtual µs and pair: timer step, put handoff, get handoff,
		// plus the server's two rendezvous steps — ~5 proc steps.
		reportEventRate(b, nPairs*5)
		s.Shutdown()
	})

	// get-timeout is the receive-with-deadline path every retrying client
	// and TCP receiver sits in: each consumer waits with a 2 µs deadline on a
	// channel fed every 3 µs, so waits alternately time out and receive, and
	// the timer of every wait that received fires later as a stale no-op.
	b.Run("get-timeout", func(b *testing.B) {
		const nPairs = 64
		s := New(Config{Seed: 1})
		for i := 0; i < nPairs; i++ {
			ch := NewChan[int](s, 0)
			s.Spawn("producer", func(p *Proc) {
				for {
					p.Sleep(3 * time.Microsecond)
					ch.Put(p, 1)
				}
			})
			s.Spawn("consumer", func(p *Proc) {
				for {
					ch.GetTimeout(p, 2*time.Microsecond)
				}
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond))
		b.ReportAllocs()
		b.ResetTimer()
		start := s.Executed()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		if b.N > 0 {
			reportEventRate(b, int(s.Executed()-start)/b.N)
		}
		s.Shutdown()
	})

	// echo is the batched hot path: each client bursts a window of requests
	// as same-instant delivery callbacks (the shape of fabric/NIC delivery
	// events), the server drains the whole run with one GetBatch wakeup and
	// echoes it back the same way. The same-timestamp burst rides the
	// scheduler's FIFO fast path (O(1) per event instead of O(log n) heap
	// ops) and amortizes one goroutine handoff over the run — the two
	// mechanisms the end-to-end batching work (BatchConfig) leans on.
	// events/sec here is computed from the engine's actual executed-event
	// counter, not a nominal per-cycle estimate.
	b.Run("echo", func(b *testing.B) {
		const (
			nPairs = 64
			burst  = 8
		)
		s := New(Config{Seed: 1})
		for i := 0; i < nPairs; i++ {
			req := NewChan[int](s, burst)
			resp := NewChan[int](s, burst)
			// Hoisted so the steady state allocates no closures.
			deliverReq := func() { req.TryPut(1) }
			deliverResp := func() { resp.TryPut(1) }
			s.Spawn("client", func(p *Proc) {
				in := make([]int, burst)
				for {
					p.Sleep(time.Microsecond)
					for j := 0; j < burst; j++ {
						s.At(p.Now(), deliverReq)
					}
					for got := 0; got < burst; {
						got += resp.GetBatch(p, in[:burst-got])
					}
				}
			})
			s.Spawn("server", func(p *Proc) {
				buf := make([]int, burst)
				for {
					n := req.GetBatch(p, buf)
					for j := 0; j < n; j++ {
						s.At(p.Now(), deliverResp)
					}
				}
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond))
		b.ReportAllocs()
		b.ResetTimer()
		start := s.Executed()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		if b.N > 0 {
			executed := s.Executed() - start
			reportEventRate(b, int(executed)/b.N)
		}
		s.Shutdown()
	})

	b.Run("resource", func(b *testing.B) {
		const nTasks = 128
		s := New(Config{Seed: 1})
		res := NewResource(s, nTasks/4)
		for i := 0; i < nTasks; i++ {
			s.SpawnTask("worker", func(t *Task) {
				var loop, held, release func()
				loop = func() {
					if res.AcquireT(t, held) {
						held()
					}
				}
				held = func() { t.Sleep(time.Microsecond, release) }
				release = func() {
					res.Release()
					loop()
				}
				loop()
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		// nTasks/4 units cycle per µs: sleep event + release handoff each.
		reportEventRate(b, nTasks/2)
		s.Shutdown()
	})

	b.Run("resource-coroutine", func(b *testing.B) {
		const nProcs = 128
		s := New(Config{Seed: 1})
		res := NewResource(s, nProcs/4)
		for i := 0; i < nProcs; i++ {
			s.Spawn("worker", func(p *Proc) {
				for {
					res.With(p, time.Microsecond, nil)
				}
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		// nProcs/4 units cycle per µs: sleep event + release handoff each.
		reportEventRate(b, nProcs/2)
		s.Shutdown()
	})

	b.Run("gate-doorbell", func(b *testing.B) {
		const nQueues = 64
		s := New(Config{Seed: 1})
		gates := make([]*Gate, nQueues)
		for i := range gates {
			gates[i] = NewGate(s)
			g := gates[i]
			s.Spawn("poller", func(p *Proc) {
				for {
					v := g.Version()
					g.Wait(p, v)
				}
			})
		}
		s.Spawn("producer", func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
				for _, g := range gates {
					g.Fire()
				}
			}
		})
		s.RunUntil(s.Now().Add(10 * time.Microsecond))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		b.StopTimer()
		reportEventRate(b, nQueues+1)
		s.Shutdown()
	})
}

// reportEventRate converts per-iteration event counts into events/sec.
func reportEventRate(b *testing.B, eventsPerOp int) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(eventsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
}
