package core_test

import (
	"fmt"
	"testing"
	"time"

	"lynx/internal/accel"
	"lynx/internal/core"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/snic"
	"lynx/internal/trace"
)

// bed builds the standard single-machine testbed: one server with a
// BlueField and one local K40m, plus a client host.
type bed struct {
	tb     *snic.Testbed
	params model.Params
	server *snic.Machine
	bf     *snic.BlueField
	gpu    *accel.GPU
	client *netstack.Host
}

func newBed(t testing.TB, seed uint64) *bed {
	t.Helper()
	return newBedWith(t, seed, model.Default())
}

// newBedWith is newBed on the given parameters.
func newBedWith(t testing.TB, seed uint64, p model.Params) *bed {
	t.Helper()
	tb := snic.NewTestbed(seed, &p)
	server := tb.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", accel.K40m, false, "server1")
	client := tb.AddClient("client1")
	if err := tb.Validate(server); err != nil {
		t.Fatal(err)
	}
	return &bed{tb: tb, params: p, server: server, bf: bf, gpu: gpu, client: client}
}

// startEchoTBs launches persistent echo threadblocks, one per queue.
func startEchoTBs(t testing.TB, b *bed, h *core.AccelHandle, compute time.Duration) {
	t.Helper()
	qs := h.AccelQueues()
	err := b.gpu.LaunchPersistent(b.tb.Sim, len(qs), func(tb *accel.TB) {
		aq := qs[tb.Index()]
		for {
			m := aq.Recv(tb.Proc())
			if compute > 0 {
				tb.Compute(compute)
			}
			if err := aq.Send(tb.Proc(), uint16(m.Slot), m.Payload); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUDPEchoThroughLynxOnBlueField(t *testing.T) {
	b := newBed(t, 1)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, err := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddService(core.UDP, 7000, nil, 4, h); err != nil {
		t.Fatal(err)
	}
	startEchoTBs(t, b, h, 0)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	const n = 200
	var got int
	hist := metrics.NewHistogram()
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			start := p.Now()
			cli.SendTo(netstack.Addr{Host: "bf1", Port: 7000}, []byte(fmt.Sprintf("ping-%03d", i)))
			dg := cli.Recv(p)
			hist.Record(p.Now().Sub(start))
			if string(dg.Payload) != fmt.Sprintf("ping-%03d", i) {
				t.Errorf("echo %d corrupted: %q", i, dg.Payload)
			}
			got++
		}
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return got == n })
	b.tb.Sim.Shutdown()
	if got != n {
		t.Fatalf("received %d/%d echoes", got, n)
	}
	// §6.2: zero-work GPU request end-to-end ≈ 25 µs via BlueField.
	med := hist.Median()
	if med < 10*time.Microsecond || med > 45*time.Microsecond {
		t.Fatalf("median E2E latency %v, paper measures ~25µs on BlueField", med)
	}
	st := rt.Stats()
	if st.Received != n || st.Responded != n || st.Dropped() != 0 {
		t.Fatalf("stats rcv=%d resp=%d drop=%d", st.Received, st.Responded, st.Dropped())
	}
}

func TestLynxOnHostXeonIsFasterPerRequest(t *testing.T) {
	run := func(useBF bool) time.Duration {
		b := newBed(t, 2)
		var plat core.Platform
		if useBF {
			plat = b.bf.Platform(7)
		} else {
			plat = b.server.HostPlatform(6, true)
		}
		host := plat.NetHost.Name()
		rt := core.NewRuntime(plat)
		h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 1)
		if _, err := rt.AddService(core.UDP, 7000, nil, 1, h); err != nil {
			t.Fatal(err)
		}
		startEchoTBs(t, b, h, 0)
		rt.Start()
		hist := metrics.NewHistogram()
		cli := b.client.MustUDPBind(9000)
		b.tb.Sim.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				start := p.Now()
				cli.SendTo(netstack.Addr{Host: host, Port: 7000}, make([]byte, 20))
				cli.Recv(p)
				hist.Record(p.Now().Sub(start))
			}
		})
		b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return hist.Count() == 100 })
		b.tb.Sim.Shutdown()
		return hist.Median()
	}
	bfLat := run(true)
	xeonLat := run(false)
	// §6.2: 25 µs on BlueField vs 19 µs on the host CPU for short requests.
	if xeonLat >= bfLat {
		t.Fatalf("Xeon latency %v should beat BlueField %v for short requests", xeonLat, bfLat)
	}
	ratio := float64(bfLat) / float64(xeonLat)
	if ratio < 1.1 || ratio > 1.9 {
		t.Fatalf("BF/Xeon latency ratio %.2f, paper ≈ 25/19 ≈ 1.3", ratio)
	}
}

func TestTCPServiceEcho(t *testing.T) {
	b := newBed(t, 3)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 2)
	if _, err := rt.AddService(core.TCP, 7100, nil, 2, h); err != nil {
		t.Fatal(err)
	}
	startEchoTBs(t, b, h, 0)
	rt.Start()
	var got int
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		conn, err := b.client.TCPDial(p, netstack.Addr{Host: "bf1", Port: 7100})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i++ {
			conn.Send(p, []byte(fmt.Sprintf("req-%02d", i)))
			msg, err := conn.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			if string(msg) != fmt.Sprintf("req-%02d", i) {
				t.Errorf("echo %d = %q", i, msg)
			}
			got++
		}
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return got == 50 })
	b.tb.Sim.Shutdown()
	if got != 50 {
		t.Fatalf("got %d/50 TCP echoes", got)
	}
}

// Multiple clients multiplexed over the same server mqueues (§4.5 "Scaling
// to multiple connections"): responses must reach the right client.
func TestResponseRoutingAcrossClients(t *testing.T) {
	b := newBed(t, 4)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 2)
	rt.AddService(core.UDP, 7000, &core.RoundRobin{}, 2, h)
	startEchoTBs(t, b, h, 5*time.Microsecond)
	rt.Start()
	const perClient = 40
	doneClients := 0
	errs := 0
	for c := 0; c < 4; c++ {
		c := c
		cli := b.tb.AddClient(fmt.Sprintf("cl%d", c)).MustUDPBind(9000)
		b.tb.Sim.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				payload := []byte(fmt.Sprintf("c%d-m%04d", c, i))
				cli.SendTo(netstack.Addr{Host: "bf1", Port: 7000}, payload)
				dg := cli.Recv(p)
				if string(dg.Payload) != string(payload) {
					errs++
				}
			}
			doneClients++
		})
	}
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return doneClients == 4 })
	b.tb.Sim.Shutdown()
	if errs != 0 {
		t.Fatalf("%d cross-routed responses", errs)
	}
}

// Sticky policy must route one client to one queue; round robin must spread.
func TestDispatchPolicies(t *testing.T) {
	from := netstack.Addr{Host: "clientX", Port: 1234}
	sticky := core.StickyHash{}
	first := sticky.Pick(from, 8)
	for i := 0; i < 10; i++ {
		if sticky.Pick(from, 8) != first {
			t.Fatal("sticky policy must be deterministic per client")
		}
	}
	other := netstack.Addr{Host: "clientY", Port: 999}
	_ = sticky.Pick(other, 8) // just must not panic
	rr := &core.RoundRobin{}
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		seen[rr.Pick(from, 8)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("round robin covered %d/8 queues", len(seen))
	}
}

// Client mqueues: the accelerator reaches a backend (memcached-style echo)
// through Lynx over TCP, no host CPU involved.
func TestClientQueueToBackend(t *testing.T) {
	b := newBed(t, 5)
	// Backend: a TCP echo server on another machine.
	backend := b.tb.NewMachine("backend1", 6)
	l := backend.NetHost.MustTCPListen(11211)
	b.tb.Sim.Spawn("backend", func(p *sim.Proc) {
		conn := l.Accept(p)
		for {
			msg, err := conn.Recv(p)
			if err != nil {
				return
			}
			backend.CPU.ExecOn(p, 4*time.Microsecond)
			conn.Send(p, append([]byte("db:"), msg...))
		}
	})

	rt := core.NewRuntime(b.bf.Platform(7))
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ClientQueue, Slots: 16, SlotSize: 128}, 1)
	cb, err := rt.AddClientQueue(h, netstack.Addr{Host: "backend1", Port: 11211})
	if err != nil {
		t.Fatal(err)
	}
	aq := h.AccelQueues()[cb.QueueIndex()]
	var results []string
	if err := b.gpu.LaunchPersistent(b.tb.Sim, 1, func(tb *accel.TB) {
		for i := 0; i < 5; i++ {
			if err := aq.Send(tb.Proc(), 0, []byte(fmt.Sprintf("q%d", i))); err != nil {
				return
			}
			m := aq.Recv(tb.Proc())
			if m.Err != 0 {
				t.Errorf("unexpected error status %d", m.Err)
				return
			}
			results = append(results, string(m.Payload))
		}
	}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return len(results) == 5 })
	b.tb.Sim.Shutdown()
	if len(results) != 5 {
		t.Fatalf("accelerator completed %d/5 backend round trips", len(results))
	}
	for i, r := range results {
		if r != fmt.Sprintf("db:q%d", i) {
			t.Fatalf("result %d = %q", i, r)
		}
	}
}

// Remote accelerators (§5.5): same Lynx code, extra latency only.
func TestRemoteGPULatencyPenalty(t *testing.T) {
	run := func(remote bool) time.Duration {
		b := newBed(t, 6)
		gpu := b.gpu
		if remote {
			m2 := b.tb.NewMachine("server2", 6)
			gpu = m2.AddGPU("gpu-remote", accel.K40m, false, "server1")
		}
		rt := core.NewRuntime(b.bf.Platform(7))
		h, _ := rt.Register(gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 1)
		rt.AddService(core.UDP, 7000, nil, 1, h)
		qs := h.AccelQueues()
		gpu.LaunchPersistent(b.tb.Sim, 1, func(tb *accel.TB) {
			aq := qs[0]
			for {
				m := aq.Recv(tb.Proc())
				if err := aq.Send(tb.Proc(), uint16(m.Slot), m.Payload); err != nil {
					return
				}
			}
		})
		rt.Start()
		hist := metrics.NewHistogram()
		cli := b.client.MustUDPBind(9000)
		b.tb.Sim.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 60; i++ {
				start := p.Now()
				cli.SendTo(netstack.Addr{Host: "bf1", Port: 7000}, make([]byte, 64))
				cli.Recv(p)
				hist.Record(p.Now().Sub(start))
			}
		})
		b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return hist.Count() == 60 })
		b.tb.Sim.Shutdown()
		return hist.Median()
	}
	local := run(false)
	remote := run(true)
	gap := remote - local
	// §6.3: "Using remote GPUs adds about 8 µsec latency."
	if gap < 5*time.Microsecond || gap > 14*time.Microsecond {
		t.Fatalf("remote GPU penalty %v, paper measures ~8µs (local %v, remote %v)", gap, local, remote)
	}
}

// Overload behaviour: when the accelerator cannot keep up, Lynx drops
// excess requests at the ring instead of queueing unboundedly.
func TestOverloadDropsAtFullRings(t *testing.T) {
	b := newBed(t, 7)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 4, SlotSize: 128}, 1)
	rt.AddService(core.UDP, 7000, nil, 1, h)
	startEchoTBs(t, b, h, 2*time.Millisecond) // 500 req/s capacity
	rt.Start()
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("flood", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			cli.SendTo(netstack.Addr{Host: "bf1", Port: 7000}, make([]byte, 64))
			p.Sleep(10 * time.Microsecond) // 100K req/s offered
		}
	})
	b.tb.Sim.RunUntil(sim.Time(15 * time.Millisecond))
	b.tb.Sim.Shutdown()
	st := rt.Stats()
	if st.Dropped() == 0 {
		t.Fatal("expected drops under 200x overload")
	}
	if st.Responded == 0 {
		t.Fatal("server made no progress under overload")
	}
}

// Forced mqueue overflow must surface as trace.Drop events with the
// overflow cause, and the trace ring must stay consistent after wrapping.
func TestOverflowDropsAreTraced(t *testing.T) {
	b := newBed(t, 17)
	plat := b.bf.Platform(7)
	plat.Spans = trace.NewSpanTable(64)
	tr := plat.Spans.Events()
	*tr = *trace.New(32) // small: guaranteed to wrap under the flood below
	rt := core.NewRuntime(plat)
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 4, SlotSize: 128}, 1)
	svc, _ := rt.AddService(core.UDP, 7000, nil, 1, h)
	startEchoTBs(t, b, h, 2*time.Millisecond)
	rt.Start()
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("flood", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			cli.SendTo(svc.Addr(), make([]byte, 64))
			p.Sleep(10 * time.Microsecond)
		}
	})
	b.tb.Sim.RunUntil(sim.Time(10 * time.Millisecond))
	b.tb.Sim.Shutdown()
	st := rt.Stats()
	if st.DroppedOverflow == 0 {
		t.Fatalf("no overflow drops under flood: %s", st)
	}
	if got := tr.Count(trace.Drop); got != st.DroppedOverflow {
		t.Fatalf("trace.Drop count %d, stats overflow %d", got, st.DroppedOverflow)
	}
	if tr.Total() <= 32 {
		t.Fatalf("ring never wrapped (total %d)", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 32 {
		t.Fatalf("retained %d events, want full ring", len(evs))
	}
	sawDrop := false
	for i, ev := range evs {
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatal("trace not chronological after wraparound")
		}
		if ev.Kind == trace.Drop {
			sawDrop = true
			if core.DropCause(ev.Arg1) != core.DropOverflow {
				t.Fatalf("drop cause %v, want overflow", core.DropCause(ev.Arg1))
			}
		}
	}
	if !sawDrop {
		t.Fatal("no Drop event retained in the wrapped ring")
	}
}

func TestRegistrationErrors(t *testing.T) {
	b := newBed(t, 8)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, err := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 64}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Claiming more queues than registered must fail.
	if _, err := rt.AddService(core.UDP, 7000, nil, 3, h); err == nil {
		t.Fatal("over-claiming queues must fail")
	}
	if _, err := rt.AddService(core.UDP, 7001, nil, 0, h); err == nil {
		t.Fatal("service without queues must fail")
	}
	rt.Start()
	if err := rt.Start(); err == nil {
		t.Fatal("double Start must fail")
	}
	if _, err := rt.Register(b.gpu, mqueue.Config{Slots: 4, SlotSize: 64}, 1); err == nil {
		t.Fatal("Register after Start must fail")
	}
	if _, err := rt.AddService(core.UDP, 7002, nil, 1, h); err == nil {
		t.Fatal("AddService after Start must fail")
	}
	if _, err := rt.AddClientQueue(h, netstack.Addr{}); err == nil {
		t.Fatal("AddClientQueue after Start must fail")
	}
	b.tb.Sim.Shutdown()
}

// Multi-tenancy (§4.5): two services on different ports and accelerator
// queue sets stay fully isolated.
func TestMultiTenantIsolation(t *testing.T) {
	b := newBed(t, 9)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 4)
	rt.AddService(core.UDP, 7000, nil, 2, h)
	rt.AddService(core.UDP, 8000, nil, 2, h)
	qs := h.AccelQueues()
	// Tenant A's queues (0,1) answer "A", tenant B's (2,3) answer "B".
	b.gpu.LaunchPersistent(b.tb.Sim, 4, func(tb *accel.TB) {
		aq := qs[tb.Index()]
		tag := byte('A')
		if tb.Index() >= 2 {
			tag = 'B'
		}
		for {
			m := aq.Recv(tb.Proc())
			if err := aq.Send(tb.Proc(), uint16(m.Slot), []byte{tag}); err != nil {
				return
			}
		}
	})
	rt.Start()
	var fromA, fromB []byte
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			cli.SendTo(netstack.Addr{Host: "bf1", Port: 7000}, []byte("x"))
			dg := cli.Recv(p)
			fromA = append(fromA, dg.Payload...)
			cli.SendTo(netstack.Addr{Host: "bf1", Port: 8000}, []byte("x"))
			dg = cli.Recv(p)
			fromB = append(fromB, dg.Payload...)
		}
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return len(fromA) == 20 && len(fromB) == 20 })
	b.tb.Sim.Shutdown()
	for _, c := range fromA {
		if c != 'A' {
			t.Fatal("tenant A received tenant B's responses")
		}
	}
	for _, c := range fromB {
		if c != 'B' {
			t.Fatal("tenant B received tenant A's responses")
		}
	}
	if len(fromA) != 20 || len(fromB) != 20 {
		t.Fatalf("A=%d B=%d responses", len(fromA), len(fromB))
	}
}

// §5.1 failure injection: a client mqueue whose backend refused the dial
// has no connection, so each message the accelerator sends comes back as an
// error-flagged reply instead of vanishing.
func TestClientQueueRefusedDialReportsError(t *testing.T) {
	b := newBed(t, 11)
	b.tb.NewMachine("backend1", 6) // nothing listens on 11211
	rt := core.NewRuntime(b.bf.Platform(7))
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ClientQueue, Slots: 16, SlotSize: 128}, 1)
	cb, err := rt.AddClientQueue(h, netstack.Addr{Host: "backend1", Port: 11211})
	if err != nil {
		t.Fatal(err)
	}
	aq := h.AccelQueues()[cb.QueueIndex()]
	var got []mqueue.Msg
	b.gpu.LaunchPersistent(b.tb.Sim, 1, func(tb *accel.TB) {
		for i := 0; i < 3; i++ {
			if aq.Send(tb.Proc(), 0, []byte(fmt.Sprintf("m%d", i))) != nil {
				return
			}
			got = append(got, aq.Recv(tb.Proc()))
		}
	})
	rt.Start()
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return len(got) == 3 })
	b.tb.Sim.Shutdown()
	if len(got) != 3 {
		t.Fatalf("accelerator got %d/3 replies from a refused backend", len(got))
	}
	for i, m := range got {
		if m.Err == 0 || len(m.Payload) != 0 {
			t.Fatalf("reply %d = %+v, want an empty error-flagged message", i, m)
		}
	}
	if f := rt.Stats().Forwarded; f != 3 {
		t.Fatalf("forwarded = %d, want 3", f)
	}
}

// §5.1 failure injection: when the backend connection dies, the SNIC reports
// the error to the accelerator through the mqueue metadata error status.
func TestClientQueueConnectionErrorMetadata(t *testing.T) {
	b := newBed(t, 12)
	backend := b.tb.NewMachine("backend1", 6)
	l := backend.NetHost.MustTCPListen(11211)
	var serverConn *netstack.TCPConn
	b.tb.Sim.Spawn("backend", func(p *sim.Proc) {
		serverConn = l.Accept(p)
		msg, err := serverConn.Recv(p)
		if err != nil {
			return
		}
		serverConn.Send(p, msg)
		// Then the backend dies abruptly.
		p.Sleep(50 * time.Microsecond)
		serverConn.Abort()
	})
	rt := core.NewRuntime(b.bf.Platform(7))
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ClientQueue, Slots: 16, SlotSize: 128}, 1)
	cb, err := rt.AddClientQueue(h, netstack.Addr{Host: "backend1", Port: 11211})
	if err != nil {
		t.Fatal(err)
	}
	aq := h.AccelQueues()[cb.QueueIndex()]
	var first mqueue.Msg
	var errMsg mqueue.Msg
	gotErr := false
	b.gpu.LaunchPersistent(b.tb.Sim, 1, func(tb *accel.TB) {
		if aq.Send(tb.Proc(), 0, []byte("q1")) != nil {
			return
		}
		first = aq.Recv(tb.Proc())
		// The next receive is the error notification pushed by Lynx when
		// the connection resets.
		errMsg = aq.Recv(tb.Proc())
		gotErr = true
	})
	rt.Start()
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return gotErr })
	b.tb.Sim.Shutdown()
	if string(first.Payload) != "q1" || first.Err != 0 {
		t.Fatalf("first reply = %+v", first)
	}
	if !gotErr || errMsg.Err == 0 {
		t.Fatalf("expected error-status metadata after connection reset, got %+v (gotErr=%v)", errMsg, gotErr)
	}
}

// The span table's event ring must record the full life of a request.
func TestRuntimeTracing(t *testing.T) {
	b := newBed(t, 31)
	plat := b.bf.Platform(7)
	plat.Spans = trace.NewSpanTable(64)
	tr := plat.Spans.Events()
	rt := core.NewRuntime(plat)
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 128}, 1)
	svc, _ := rt.AddService(core.UDP, 7000, nil, 1, h)
	startEchoTBs(t, b, h, 0)
	rt.Start()
	done := false
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			cli.SendTo(svc.Addr(), []byte("x"))
			cli.Recv(p)
		}
		done = true
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done })
	b.tb.Sim.Shutdown()
	for _, k := range []trace.Kind{trace.Recv, trace.Dispatch, trace.Drain, trace.Forward} {
		if tr.Count(k) != 10 {
			t.Fatalf("%v events = %d, want 10 (%s)", k, tr.Count(k), tr.Summary())
		}
	}
	if tr.Count(trace.Drop) != 0 {
		t.Fatalf("unexpected drops: %s", tr.Summary())
	}
	// Events for one request appear in causal order.
	evs := tr.Events()
	if len(evs) < 4 {
		t.Fatal("too few events retained")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace not chronological")
		}
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	b := newBed(t, 41)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 4)
	policy := core.NewLeastLoaded(h)
	svc, _ := rt.AddService(core.UDP, 7000, policy, 4, h)
	qs := h.AccelQueues()
	// Skewed service times: queue 0 is 10x slower than the others.
	b.gpu.LaunchPersistent(b.tb.Sim, 4, func(tb *accel.TB) {
		aq := qs[tb.Index()]
		work := 20 * time.Microsecond
		if tb.Index() == 0 {
			work = 200 * time.Microsecond
		}
		for {
			m := aq.Recv(tb.Proc())
			tb.Compute(work)
			if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	})
	rt.Start()
	res := func() float64 {
		g := workloadNew(b, workloadCfg(svc.Addr(), 8, 20*time.Millisecond))
		r := workloadRun(b, g)
		return r.Throughput()
	}()
	// The policy must avoid drowning the slow queue: with pure RR, 1/4 of
	// traffic heads to a 5K-capacity queue and throughput collapses toward
	// 4x5K=20K; least-loaded should exceed that comfortably.
	if res < 40000 {
		t.Fatalf("least-loaded throughput %.0f, want > 40K", res)
	}
	// Degraded (unwired) mode falls back to round-robin without panicking.
	fallback := core.NewLeastLoaded(h)
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		seen[fallback.Pick(netstack.Addr{}, 16)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("fallback RR covered %d/16", len(seen))
	}
}

func TestRuntimeAccessors(t *testing.T) {
	b := newBed(t, 51)
	// Workers <= 0 defaults to 1.
	plat := b.server.HostPlatform(0, true)
	rt := core.NewRuntime(plat)
	h, _ := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 64}, 1)
	if h.Accelerator() != b.gpu {
		t.Fatal("Accelerator accessor wrong")
	}
	svc, _ := rt.AddService(core.UDP, 7000, nil, 1, h)
	if svc.Port() != 7000 {
		t.Fatalf("port %d", svc.Port())
	}
	if core.UDP.String() != "UDP" || core.TCP.String() != "TCP" {
		t.Fatal("proto strings")
	}
	if rt.CPUBusy() != 0 || rt.ExecCalls() != 0 {
		t.Fatal("fresh runtime has CPU time")
	}
	startEchoTBs(t, b, h, 0)
	rt.Start()
	done := false
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("c", func(p *sim.Proc) {
		cli.SendTo(svc.Addr(), []byte("x"))
		cli.Recv(p)
		done = true
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done })
	b.tb.Sim.Shutdown()
	if rt.CPUBusy() == 0 || rt.ExecCalls() == 0 {
		t.Fatal("request did not register CPU work")
	}
}
