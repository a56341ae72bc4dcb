package mqueue

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"lynx/internal/fabric"
	"lynx/internal/memdev"
	"lynx/internal/model"
	"lynx/internal/rdma"
	"lynx/internal/sim"
)

type rig struct {
	s      *sim.Sim
	params model.Params
	gpu    *fabric.Device
	eng    *rdma.Engine
	region *memdev.Region
	qp     *rdma.QP
}

func newRig(t testing.TB, relaxed bool, regionSize int) *rig {
	t.Helper()
	s := sim.New(sim.Config{Seed: 11})
	p := model.Default()
	f := fabric.New()
	cfg := memdev.Config{}
	if relaxed {
		cfg = memdev.Config{Relaxed: true, MaxSkew: 10 * time.Microsecond}
	}
	mem := memdev.NewMemory(s, "gpu0", regionSize+4096, true, cfg)
	nic := f.AddDevice("nic", nil)
	gpu := f.AddDevice("gpu0", mem)
	f.Connect(nic, gpu, p.PCIeLatency, p.PCIeBandwidth)
	eng := rdma.NewEngine(s, &p, f, nic)
	region := mem.MustAlloc("mq", regionSize)
	qp := eng.CreateQP(gpu, rdma.QPConfig{Kind: rdma.RC})
	return &rig{s: s, params: p, gpu: gpu, eng: eng, region: region, qp: qp}
}

func gpuProfile(p model.Params) AccessProfile {
	return AccessProfile{LocalAccess: p.GPULocalAccess, PollInterval: p.GPUPollInterval}
}

func stdCfg() Config { return Config{Kind: ServerQueue, Slots: 16, SlotSize: 128} }

func TestConfigValidation(t *testing.T) {
	r := newRig(t, false, 1<<16)
	if _, err := New(r.region, 0, Config{Slots: 0, SlotSize: 64}, r.qp); err == nil {
		t.Error("zero slots must fail")
	}
	if _, err := New(r.region, 0, Config{Slots: 4, SlotSize: HeaderBytes}, r.qp); err == nil {
		t.Error("slot smaller than header must fail")
	}
	huge := Config{Slots: 1 << 12, SlotSize: 1 << 12}
	if _, err := New(r.region, 0, huge, r.qp); err == nil {
		t.Error("footprint beyond region must fail")
	}
	if _, err := Attach(r.region, 0, huge, gpuProfile(r.params)); err == nil {
		t.Error("accel attach beyond region must fail")
	}
	c := stdCfg()
	if c.Footprint() != QueueHeaderBytes+2*16*128 {
		t.Fatalf("footprint = %d", c.Footprint())
	}
	if c.MaxPayload() != 122 {
		t.Fatalf("max payload = %d", c.MaxPayload())
	}
	if GroupFootprint(c, 4) != 4*QueueHeaderBytes+4*c.RingBytes() {
		t.Fatalf("group footprint = %d", GroupFootprint(c, 4))
	}
	if _, err := NewGroup(r.region, 0, c, 0, r.qp); err == nil {
		t.Error("empty group must fail")
	}
	if _, err := NewGroup(r.region, 0, c, 1<<10, r.qp); err == nil {
		t.Error("oversized group must fail")
	}
	if _, err := AttachGroup(r.region, 0, c, 1<<10, gpuProfile(r.params)); err == nil {
		t.Error("oversized accel group must fail")
	}
}

func TestEndToEndEcho(t *testing.T) {
	r := newRig(t, false, 1<<16)
	cfg := stdCfg()
	snicQ, err := New(r.region, 0, cfg, r.qp)
	if err != nil {
		t.Fatal(err)
	}
	accQ, err := Attach(r.region, 0, cfg, gpuProfile(r.params))
	if err != nil {
		t.Fatal(err)
	}

	const n = 50
	// Accelerator: echo back with a prefix.
	r.s.Spawn("gpu-tb", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m := accQ.Recv(p)
			resp := append([]byte("r:"), m.Payload...)
			if err := accQ.Send(p, uint16(m.Slot), resp); err != nil {
				t.Error(err)
				return
			}
		}
	})
	var got [][]byte
	r.s.Spawn("snic", func(p *sim.Proc) {
		next := 0
		for len(got) < n {
			if next < n {
				if _, err := snicQ.Push(p, []byte(fmt.Sprintf("msg-%02d", next)), 0); err == nil {
					next++
					continue
				}
			}
			if msg, ok := poll(p, snicQ); ok {
				// The next drain reuses the payload's buffer: keep a copy.
				got = append(got, bytes.Clone(msg.Payload))
			} else {
				p.Sleep(r.params.MQPollInterval)
			}
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if len(got) != n {
		t.Fatalf("got %d responses, want %d", len(got), n)
	}
	for i, g := range got {
		want := fmt.Sprintf("r:msg-%02d", i)
		if string(g) != want {
			t.Fatalf("response %d = %q, want %q", i, g, want)
		}
	}
	pushed, polled, _ := snicQ.Stats()
	if pushed != n || polled != n {
		t.Fatalf("stats pushed=%d polled=%d", pushed, polled)
	}
}

func TestRingFullBackpressure(t *testing.T) {
	r := newRig(t, false, 1<<16)
	cfg := Config{Kind: ServerQueue, Slots: 4, SlotSize: 64}
	snicQ, _ := New(r.region, 0, cfg, r.qp)
	r.s.Spawn("snic", func(p *sim.Proc) {
		// Nobody consumes: the 5th push must fail.
		for i := 0; i < 4; i++ {
			if _, err := snicQ.Push(p, []byte{byte(i)}, 0); err != nil {
				t.Errorf("push %d: %v", i, err)
			}
		}
		if _, err := snicQ.Push(p, []byte{9}, 0); err != ErrQueueFull {
			t.Errorf("push into full ring: %v", err)
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	_, _, full := snicQ.Stats()
	if full != 1 {
		t.Fatalf("full events = %d", full)
	}
}

func TestRingFullRecoversAfterConsumption(t *testing.T) {
	r := newRig(t, false, 1<<16)
	cfg := Config{Kind: ServerQueue, Slots: 2, SlotSize: 64}
	snicQ, _ := New(r.region, 0, cfg, r.qp)
	accQ, _ := Attach(r.region, 0, cfg, gpuProfile(r.params))
	var consumed int
	r.s.Spawn("gpu", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond) // let the ring fill first
		for i := 0; i < 3; i++ {
			accQ.Recv(p)
			consumed++
		}
	})
	r.s.Spawn("snic", func(p *sim.Proc) {
		snicQ.Push(p, []byte{1}, 0)
		snicQ.Push(p, []byte{2}, 0)
		if _, err := snicQ.Push(p, []byte{3}, 0); err != ErrQueueFull {
			t.Errorf("expected full, got %v", err)
		}
		p.Sleep(200 * time.Microsecond)
		// GPU consumed: the retry must succeed (consumed counter refresh).
		if _, err := snicQ.Push(p, []byte{3}, 0); err != nil {
			t.Errorf("push after drain: %v", err)
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if consumed != 3 {
		t.Fatalf("consumed = %d", consumed)
	}
}

func TestErrorStatusPropagates(t *testing.T) {
	r := newRig(t, false, 1<<16)
	cfg := stdCfg()
	snicQ, _ := New(r.region, 0, cfg, r.qp)
	accQ, _ := Attach(r.region, 0, cfg, gpuProfile(r.params))
	var got Msg
	r.s.Spawn("gpu", func(p *sim.Proc) { got = accQ.Recv(p) })
	r.s.Spawn("snic", func(p *sim.Proc) {
		// §5.1: the SNIC reports detected connection errors in metadata.
		snicQ.Push(p, []byte("conn reset"), 0x7)
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if got.Err != 0x7 || string(got.Payload) != "conn reset" {
		t.Fatalf("msg = %+v", got)
	}
	_, _, errs := accQ.Stats()
	if errs != 1 {
		t.Fatalf("error receives = %d", errs)
	}
}

// Coalescing ablation: default mode must use exactly 1 RDMA op per push,
// NoCoalesce 2, Barrier 3.
func TestRDMAOpsPerPush(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"coalesced", Config{Slots: 8, SlotSize: 64}, 1},
		{"no-coalesce", Config{Slots: 8, SlotSize: 64, NoCoalesce: true}, 2},
		{"barrier", Config{Slots: 8, SlotSize: 64, Barrier: true}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, false, 1<<16)
			snicQ, _ := New(r.region, 0, tc.cfg, r.qp)
			r.s.Spawn("snic", func(p *sim.Proc) {
				snicQ.Push(p, []byte("x"), 0)
			})
			r.s.RunUntil(sim.Time(time.Second))
			r.s.Shutdown()
			if got := r.eng.Ops(); got != tc.want {
				t.Fatalf("RDMA ops per push = %d, want %d", got, tc.want)
			}
		})
	}
}

// §5.1: the barrier workaround costs ~5 µs extra per message.
func TestBarrierOverheadNearFiveMicros(t *testing.T) {
	measure := func(cfg Config) time.Duration {
		r := newRig(t, false, 1<<16)
		snicQ, _ := New(r.region, 0, cfg, r.qp)
		var elapsed time.Duration
		r.s.Spawn("snic", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 10; i++ {
				if _, err := snicQ.Push(p, make([]byte, 20), 0); err != nil {
					t.Error(err)
				}
			}
			elapsed = p.Now().Sub(start) / 10
		})
		r.s.RunUntil(sim.Time(time.Second))
		r.s.Shutdown()
		return elapsed
	}
	fast := measure(Config{Slots: 16, SlotSize: 64})
	slow := measure(Config{Slots: 16, SlotSize: 64, Barrier: true})
	extra := slow - fast
	if extra < 3500*time.Nanosecond || extra > 7*time.Microsecond {
		t.Fatalf("barrier adds %v per message, paper measures ~5µs", extra)
	}
}

// Failure injection: on relaxed-ordering memory, separate payload/doorbell
// writes without a barrier corrupt some messages; the barrier fixes it.
func TestRelaxedOrderingCorruptionAndFix(t *testing.T) {
	run := func(cfg Config) (corrupted, total int) {
		r := newRig(t, true, 1<<16)
		snicQ, _ := New(r.region, 0, cfg, r.qp)
		accQ, _ := Attach(r.region, 0, cfg, gpuProfile(r.params))
		const n = 150
		payload := func(i int) []byte { return []byte(fmt.Sprintf("msg%05d", i)) }
		r.s.Spawn("gpu", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				m := accQ.Recv(p)
				total++
				if !bytes.Equal(m.Payload, payload(i)) {
					corrupted++
				}
			}
		})
		r.s.Spawn("snic", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				for {
					_, err := snicQ.Push(p, payload(i), 0)
					if err == nil {
						break
					}
					p.Sleep(5 * time.Microsecond)
				}
			}
		})
		r.s.RunUntil(sim.Time(time.Second))
		r.s.Shutdown()
		return corrupted, total
	}
	corrupt, total := run(Config{Slots: 16, SlotSize: 64, NoCoalesce: true})
	if total != 150 {
		t.Fatalf("hazard run delivered %d/150", total)
	}
	if corrupt == 0 {
		t.Fatal("expected some corrupted messages without the barrier on relaxed memory")
	}
	fixed, totalFixed := run(Config{Slots: 16, SlotSize: 64, Barrier: true})
	if totalFixed != 150 || fixed != 0 {
		t.Fatalf("barrier run: %d corrupted of %d", fixed, totalFixed)
	}
}

// Property: for any payload sequence, the accelerator receives exactly the
// pushed payloads in order, and responses return in order with correct
// correlation slots.
func TestIntegrityProperty(t *testing.T) {
	prop := func(seed uint16, count uint8) bool {
		n := int(count)%40 + 1
		r := newRig(t, false, 1<<16)
		cfg := Config{Kind: ServerQueue, Slots: 8, SlotSize: 96}
		snicQ, _ := New(r.region, 0, cfg, r.qp)
		accQ, _ := Attach(r.region, 0, cfg, gpuProfile(r.params))
		mkPayload := func(i int) []byte {
			sz := (int(seed)+i*7)%cfg.MaxPayload() + 1
			buf := make([]byte, sz)
			for j := range buf {
				buf[j] = byte(int(seed) + i + j)
			}
			return buf
		}
		ok := true
		r.s.Spawn("gpu", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				m := accQ.Recv(p)
				if !bytes.Equal(m.Payload, mkPayload(i)) {
					ok = false
				}
				accQ.Send(p, uint16(m.Slot), m.Payload)
			}
		})
		done := false
		r.s.Spawn("snic", func(p *sim.Proc) {
			sent, rcvd := 0, 0
			for rcvd < n {
				if sent < n {
					if _, err := snicQ.Push(p, mkPayload(sent), 0); err == nil {
						sent++
						continue
					}
				}
				if msg, polled := poll(p, snicQ); polled {
					if !bytes.Equal(msg.Payload, mkPayload(rcvd)) {
						ok = false
					}
					if int(msg.Corr) != rcvd%cfg.Slots {
						ok = false
					}
					rcvd++
				} else {
					p.Sleep(time.Microsecond)
				}
			}
			done = true
		})
		r.s.RunUntil(sim.Time(time.Second))
		r.s.Shutdown()
		return ok && done
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	r := newRig(t, false, 1<<16)
	cfg := Config{Slots: 4, SlotSize: 32}
	snicQ, _ := New(r.region, 0, cfg, r.qp)
	accQ, _ := Attach(r.region, 0, cfg, gpuProfile(r.params))
	r.s.Spawn("x", func(p *sim.Proc) {
		if _, err := snicQ.Push(p, make([]byte, 27), 0); err == nil {
			t.Error("oversize push must fail")
		}
		if err := accQ.Send(p, 0, make([]byte, 27)); err == nil {
			t.Error("oversize send must fail")
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
}

// Two mqueues sharing one region and one QP (the paper's one-RC-QP-per-
// accelerator coalescing, §5.1) must not interfere.
func TestMultipleQueuesShareRegionAndQP(t *testing.T) {
	r := newRig(t, false, 1<<17)
	cfg := Config{Kind: ServerQueue, Slots: 8, SlotSize: 64}
	base2 := cfg.Footprint()
	q1, _ := New(r.region, 0, cfg, r.qp)
	q2, _ := New(r.region, base2, cfg, r.qp)
	a1, _ := Attach(r.region, 0, cfg, gpuProfile(r.params))
	a2, _ := Attach(r.region, base2, cfg, gpuProfile(r.params))
	var got1, got2 []byte
	r.s.Spawn("tb1", func(p *sim.Proc) { got1 = a1.Recv(p).Payload })
	r.s.Spawn("tb2", func(p *sim.Proc) { got2 = a2.Recv(p).Payload })
	r.s.Spawn("snic", func(p *sim.Proc) {
		q1.Push(p, []byte("one"), 0)
		q2.Push(p, []byte("two"), 0)
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if string(got1) != "one" || string(got2) != "two" {
		t.Fatalf("got1=%q got2=%q", got1, got2)
	}
}

func TestKindStringsAndAccessors(t *testing.T) {
	if ServerQueue.String() != "server" || ClientQueue.String() != "client" {
		t.Fatal("kind strings wrong")
	}
	r := newRig(t, false, 1<<16)
	cfg := stdCfg()
	q, _ := New(r.region, 0, cfg, r.qp)
	if q.Config() != cfg {
		t.Fatal("Config accessor wrong")
	}
	if q.InFlight() != 0 {
		t.Fatal("fresh queue has in-flight messages")
	}
	r.s.Spawn("x", func(p *sim.Proc) {
		q.Push(p, []byte("a"), 0)
		if q.InFlight() != 1 {
			t.Error("in-flight after push")
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
}

// PushAsync (the Innova fast path): posted delivery, cached flow control.
func TestPushAsync(t *testing.T) {
	r := newRig(t, false, 1<<16)
	cfg := Config{Slots: 4, SlotSize: 64}
	q, _ := New(r.region, 0, cfg, r.qp)
	aq, _ := Attach(r.region, 0, cfg, gpuProfile(r.params))
	var got []byte
	r.s.Spawn("gpu", func(p *sim.Proc) {
		m := aq.Recv(p)
		got = m.Payload
	})
	r.s.Spawn("snic", func(p *sim.Proc) {
		if _, err := q.PushAsync(p, []byte("posted"), 0); err != nil {
			t.Error(err)
		}
		// Fill the ring: the 5th push must fail on cached counters alone
		// (no RDMA read).
		for i := 0; i < 3; i++ {
			if _, err := q.PushAsync(p, []byte{byte(i)}, 0); err != nil {
				t.Errorf("push %d: %v", i, err)
			}
		}
		if _, err := q.PushAsync(p, []byte{9}, 0); err != ErrQueueFull {
			t.Errorf("full ring: %v", err)
		}
		// Barrier/NoCoalesce modes reject async pushes.
		bq, _ := New(r.region, cfg.Footprint(), Config{Slots: 4, SlotSize: 64, Barrier: true}, r.qp)
		if _, err := bq.PushAsync(p, []byte{1}, 0); err == nil {
			t.Error("PushAsync must reject barrier mode")
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if string(got) != "posted" {
		t.Fatalf("got %q", got)
	}
}

func TestGroupActivityGate(t *testing.T) {
	r := newRig(t, false, 1<<18)
	cfg := Config{Slots: 8, SlotSize: 64}
	g, _ := NewGroup(r.region, 0, cfg, 2, r.qp)
	accQs, _ := AttachGroup(r.region, 0, cfg, 2, gpuProfile(r.params))
	gate := g.ActivityGate()
	if g.ActivityGate() != gate {
		t.Fatal("gate must be cached")
	}
	woken := false
	r.s.Spawn("manager", func(p *sim.Proc) {
		v := gate.Version()
		gate.Wait(p, v)
		woken = true
	})
	r.s.Spawn("gpu", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond)
		accQs[1].Send(p, 0, []byte("out")) // txSent header write fires the gate
	})
	r.s.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return woken })
	r.s.Shutdown()
	if !woken {
		t.Fatal("activity gate never fired on a TX send")
	}
}

// popOne drains the next TX message through a one-slot PopTxMany run, the
// unbatched drain.
func popOne(p *sim.Proc, q *Queue) (TxMsg, bool) {
	var buf [1]TxMsg
	if q.PopTxMany(p, 1, buf[:]) == 0 {
		return TxMsg{}, false
	}
	return buf[0], true
}

// poll is the standalone-queue drain: refresh if idle, pop one message,
// commit.
func poll(p *sim.Proc, q *Queue) (TxMsg, bool) {
	if !q.Ready() {
		q.Refresh(p)
	}
	msg, ok := popOne(p, q)
	if ok {
		q.CommitTx(p)
	}
	return msg, ok
}

// drainAll runs an echo flow over a 4-slot ring and returns every response in
// drain order, draining runs of up to budget messages via PopTxMany. The ring
// wraps several times, so the run-stops-at-wrap behavior is exercised.
func drainAll(t *testing.T, total, budget int) []TxMsg {
	t.Helper()
	r := newRig(t, false, 1<<16)
	cfg := Config{Kind: ServerQueue, Slots: 4, SlotSize: 128}
	snicQ, err := New(r.region, 0, cfg, r.qp)
	if err != nil {
		t.Fatal(err)
	}
	accQ, err := Attach(r.region, 0, cfg, gpuProfile(r.params))
	if err != nil {
		t.Fatal(err)
	}
	r.s.Spawn("gpu-tb", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			m := accQ.Recv(p)
			if err := accQ.Send(p, uint16(m.Slot), append([]byte("r:"), m.Payload...)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	var got []TxMsg
	r.s.Spawn("snic", func(p *sim.Proc) {
		next := 0
		buf := make([]TxMsg, 8)
		for len(got) < total {
			if next < total {
				if _, err := snicQ.Push(p, []byte(fmt.Sprintf("msg-%02d", next)), 0); err == nil {
					next++
					continue
				}
			}
			if !snicQ.Ready() {
				snicQ.Refresh(p)
			}
			drained := false
			for snicQ.Ready() {
				k := snicQ.PopTxMany(p, budget, buf)
				if k == 0 {
					break
				}
				// The next drain reuses the payloads' buffer: keep copies.
				for _, m := range buf[:k] {
					m.Payload = bytes.Clone(m.Payload)
					got = append(got, m)
				}
				drained = true
			}
			snicQ.CommitTx(p)
			if !drained {
				p.Sleep(r.params.MQPollInterval)
			}
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	return got
}

// Multi-slot runs must produce exactly the message sequence the unbatched
// one-slot drain (budget 1) produces — payloads, error bytes, correlators and
// slots — across ring wraparounds.
func TestPopTxManyMatchesPopTx(t *testing.T) {
	const total = 11
	single := drainAll(t, total, 1)
	for _, budget := range []int{3, 8} {
		batched := drainAll(t, total, budget)
		if len(single) != total || len(batched) != total {
			t.Fatalf("budget %d: drained %d single vs %d batched, want %d", budget, len(single), len(batched), total)
		}
		for i := range single {
			s, b := single[i], batched[i]
			if !bytes.Equal(s.Payload, b.Payload) || s.Corr != b.Corr || s.Slot != b.Slot {
				t.Fatalf("budget %d: message %d differs: single %+v vs batched %+v", budget, i, s, b)
			}
		}
	}
}

// PrepareWriteT + PostAndWaitT is the batched push path: the payload WQEs of
// a whole dispatch quantum go out under shared doorbells, yet every message
// is delivered intact and in order.
func TestPrepareWritePostAndWaitDelivers(t *testing.T) {
	r := newRig(t, false, 1<<16)
	cfg := stdCfg()
	snicQ, err := New(r.region, 0, cfg, r.qp)
	if err != nil {
		t.Fatal(err)
	}
	accQ, err := Attach(r.region, 0, cfg, gpuProfile(r.params))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var recvd [][]byte
	r.s.Spawn("gpu-tb", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m := accQ.Recv(p)
			recvd = append(recvd, append([]byte(nil), m.Payload...))
		}
	})
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		wrs := make([]rdma.WR, 0, n)
		for i := 0; i < n; i++ {
			wr, _, err, inline := snicQ.PrepareWriteT(tk, []byte(fmt.Sprintf("batched-%d", i)), 0, nil)
			if !inline || err != nil {
				t.Errorf("prepare %d: inline=%v err=%v", i, inline, err)
				return
			}
			wrs = append(wrs, wr)
		}
		snicQ.QP().PostAndWaitT(tk, wrs, 4, 3, func(rdma.CQE) {})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if len(recvd) != n {
		t.Fatalf("accelerator received %d messages, want %d", len(recvd), n)
	}
	for i, g := range recvd {
		if want := fmt.Sprintf("batched-%d", i); string(g) != want {
			t.Fatalf("message %d = %q, want %q", i, g, want)
		}
	}
	pushed, _, _ := snicQ.Stats()
	if pushed != n {
		t.Fatalf("pushed = %d, want %d", pushed, n)
	}
}
