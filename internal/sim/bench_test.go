package sim

import (
	"slices"
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

	// delay-mix is the event queue's shape at the Fig. 6 point: each of 480
	// tasks cycles through the fixed delays its requests' stages charge,
	// waiting for each delivery with a 100 ms deadline on its own channel,
	// so every step queues one short-delay delivery and one same-instant
	// wake while the queue also holds one armed far-future deadline per
	// task.
	b.Run("delay-mix", func(b *testing.B) {
		const nTasks = 480
		delays := []time.Duration{150, 300, 350, 400, 700, 840, 910, 942, 1050, 1227, 1260, 1365, 2460}
		s := New(Config{Seed: 1})
		for i := 0; i < nTasks; i++ {
			ch := NewChan[int](s, 0)
			deliver := func() { ch.TryPut(1) }
			j := i % len(delays)
			s.SpawnTask("stage", func(t *Task) {
				var step func(int, bool)
				step = func(int, bool) {
					for {
						j = (j + 1) % len(delays)
						s.At(s.Now().Add(delays[j]), deliver)
						if _, _, inline := ch.GetTimeoutT(t, 100*time.Millisecond, step); !inline {
							return
						}
					}
				}
				step(0, true)
			})
		}
		s.RunUntil(s.Now().Add(10 * time.Microsecond)) // settle spawns
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
	// channel its own producer feeds every 3 µs, so waits alternately time
	// out and receive. stale-timeouts is the shape of a loaded deployment's
	// receive timeouts: each consumer waits with a 1 ms deadline on a channel
	// one producer feeds every 1 µs, so every wait receives before its
	// deadline — with eager timers, ~64 k dead ones pending at once.
	// mixed-timeouts is the deadline mix of a Lynx rack: consumer i waits
	// with the i%3-th of a 100 ms client timeout, a 5 ms watchdog and a
	// 100 µs receive poll on a channel one producer feeds every 10 µs, so
	// nearly every wait receives and the three classes' deadlines interleave
	// in time. Runs settle for twice the longest deadline, so the event
	// queues have reached their full size before timing starts. The -task
	// variants run the consumers on the Task substrate (the TCP receive
	// contexts of the runtime). These rows report resolved waits/sec, a
	// count of the work itself: the events a wait costs are what the engine
	// is free to change.
	for _, c := range []struct {
		name        string
		deadlines   []time.Duration // consumer i waits with deadlines[i%len]
		period      time.Duration
		oneProducer bool
	}{
		{"get-timeout", []time.Duration{2 * time.Microsecond}, 3 * time.Microsecond, false},
		{"stale-timeouts", []time.Duration{time.Millisecond}, time.Microsecond, true},
		{"mixed-timeouts", []time.Duration{100 * time.Millisecond, 5 * time.Millisecond, 100 * time.Microsecond}, 10 * time.Microsecond, true},
	} {
		for _, task := range []bool{false, true} {
			name := c.name
			if task {
				name += "-task"
			}
			b.Run(name, func(b *testing.B) {
				const nPairs = 64
				s := New(Config{Seed: 1})
				waits := 0 // waits resolved, received or timed out
				chans := make([]*Chan[int], nPairs)
				for i := range chans {
					ch := NewChan[int](s, 0)
					chans[i] = ch
					deadline := c.deadlines[i%len(c.deadlines)]
					if !c.oneProducer {
						s.Spawn("producer", func(p *Proc) {
							for {
								p.Sleep(c.period)
								ch.Put(p, 1)
							}
						})
					}
					if task {
						s.SpawnTask("consumer", func(t *Task) {
							var wait func(int, bool)
							wait = func(int, bool) {
								waits++
								for {
									if _, _, inline := ch.GetTimeoutT(t, deadline, wait); !inline {
										return
									}
									waits++
								}
							}
							wait(0, false)
						})
						continue
					}
					s.Spawn("consumer", func(p *Proc) {
						for {
							ch.GetTimeout(p, deadline)
							waits++
						}
					})
				}
				if c.oneProducer {
					s.Spawn("producer", func(p *Proc) {
						for {
							p.Sleep(c.period)
							for _, ch := range chans {
								ch.Put(p, 1)
							}
						}
					})
				}
				s.RunUntil(s.Now().Add(max(10*time.Microsecond, 2*slices.Max(c.deadlines))))
				b.ReportAllocs()
				b.ResetTimer()
				start := waits
				for i := 0; i < b.N; i++ {
					s.RunUntil(s.Now().Add(time.Microsecond))
				}
				b.StopTimer()
				if b.Elapsed() > 0 {
					b.ReportMetric(float64(waits-start)/b.Elapsed().Seconds(), "waits/sec")
				}
				s.Shutdown()
			})
		}
	}

	// echo is the batched hot path: each client bursts a window of requests
	// as same-instant delivery callbacks (the shape of fabric/NIC delivery
	// events), the server drains the whole run with one GetBatch wakeup and
	// echoes it back the same way. The same-timestamp burst rides the
	// wheel's bucket for the current instant (O(1) per event) and amortizes
	// one goroutine handoff over the run — the two mechanisms the end-to-end
	// batching work (BatchConfig) leans on.
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

// BenchmarkSpawn measures the life of one short coroutine Proc: Spawn, its
// start event, and its exit. It sits outside BenchmarkSimEngine because a
// spawn allocates (the Proc and its coroutine), while every engine primitive
// must stay at 0 allocs/op.
func BenchmarkSpawn(b *testing.B) {
	s := New(Config{Seed: 1})
	body := func(p *Proc) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Spawn("short", body)
		s.RunUntil(s.Now())
	}
	b.StopTimer()
	s.Shutdown()
}

// reportEventRate converts per-iteration event counts into events/sec.
func reportEventRate(b *testing.B, eventsPerOp int) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(eventsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
}

// GetBatch is the echo row's Proc-form batch receive: it blocks for the
// first item, then drains whatever else is immediately available, and
// returns the number of items stored (at least 1 for a non-empty buf).
func (c *Chan[T]) GetBatch(p *Proc, buf []T) int {
	if len(buf) == 0 {
		return 0
	}
	buf[0] = c.Get(p)
	return 1 + c.drainInto(buf[1:])
}
