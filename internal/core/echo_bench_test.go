package core_test

import (
	"encoding/binary"
	"testing"
	"time"

	"lynx/internal/core"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// echoRig is one warm echo deployment driven one request at a time from
// outside any simulated process: Lynx on BlueField in front of four GPU
// mqueues whose persistent threadblocks echo each request back. A UDP rig
// sends datagrams from a client socket; a TCP rig kicks a client process
// holding one connection. A traced rig arms a span table and gives every
// request a fresh span id, which it begins before the send and closes when
// the echo is back. A batched rig runs the runtime under
// model.DefaultBatchConfig(): batched receive, dispatch and posting.
type echoRig struct {
	b       *bed
	spans   *trace.SpanTable // nil untraced
	seq     uint64           // the last request's span id (traced rigs)
	payload []byte
	send    func()      // issues one 64 B request
	back    func() bool // reports (and consumes) its echo
}

func newEchoRig(tb testing.TB, proto core.Proto, traced, batched bool) *echoRig {
	p := model.Default()
	if batched {
		p.Batch = model.DefaultBatchConfig()
	}
	b := newBedWith(tb, 1, p)
	plat := b.bf.Platform(7)
	if traced {
		plat.Spans = trace.NewSpanTable(0)
	}
	rt := core.NewRuntime(plat)
	h, err := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 4)
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := rt.AddService(proto, 7000, nil, 4, h)
	if err != nil {
		tb.Fatal(err)
	}
	startEchoTBs(tb, b, h, 0)
	if err := rt.Start(); err != nil {
		tb.Fatal(err)
	}
	r := &echoRig{b: b, spans: plat.Spans, payload: make([]byte, 64)}
	payload := r.payload
	switch proto {
	case core.UDP:
		cli := b.client.MustUDPBind(9000)
		r.send = func() { cli.SendTo(svc.Addr(), payload) }
		r.back = func() bool {
			_, ok := cli.TryRecv()
			return ok
		}
	case core.TCP:
		kick := sim.NewChan[struct{}](b.tb.Sim, 0)
		var echoed, seen uint64
		b.tb.Sim.Spawn("client", func(p *sim.Proc) {
			conn, err := b.client.TCPDial(p, svc.Addr())
			if err != nil {
				tb.Error(err)
				return
			}
			for {
				kick.Get(p)
				if conn.Send(p, payload) != nil {
					return
				}
				if _, err := conn.Recv(p); err != nil {
					return
				}
				echoed++
			}
		})
		r.send = func() { kick.TryPut(struct{}{}) }
		r.back = func() bool {
			if seen == echoed {
				return false
			}
			seen++
			return true
		}
	}
	// Warm every pool on the path: frames, waiter nodes and the event
	// queues.
	for i := 0; i < 500; i++ {
		r.request(tb)
	}
	return r
}

// request sends one request and runs the simulation until its echo is back
// at the client.
func (r *echoRig) request(tb testing.TB) {
	s := r.b.tb.Sim
	if r.spans != nil {
		r.seq++
		binary.LittleEndian.PutUint64(r.payload, r.seq)
		r.spans.Begin(r.seq, s.Now())
	}
	r.send()
	deadline := s.Now().Add(time.Millisecond)
	for !r.back() {
		if s.Now() >= deadline {
			tb.Fatal("no echo within 1ms")
		}
		s.RunUntil(s.Now().Add(time.Microsecond))
	}
	r.spans.Close(r.seq, trace.SpanDone, s.Now())
}

// echoCeilings bounds the objects one warm echo request may allocate, per
// rig. Every hand-off lends its buffer: the GPU receives into its queue's
// receive buffer, the SNIC drains into the queue's drain buffer, and every
// network receive, the runtime's and the rig client's alike, holds its
// payload only until the receiver's next receive, which hands it back to
// the network for the next send's wire copy. The batched path binds its
// frames once, like the unbatched one. So no request allocates. Recording
// is free: a traced request, with its span complete and its events in the
// ring, allocates and schedules exactly what an untraced one does.
var echoCeilings = []struct {
	name            string
	proto           core.Proto
	traced, batched bool
	ceiling         float64
}{
	{"UDP", core.UDP, false, false, 0},
	{"TCP", core.TCP, false, false, 0},
	{"UDP-traced", core.UDP, true, false, 0},
	{"TCP-traced", core.TCP, true, false, 0},
	{"UDP-batched", core.UDP, false, true, 0},
}

// BenchmarkEchoRequest is the core layer's benchmark: one warm echo request,
// SNIC → GPU → SNIC, through the Task-hosted receive contexts and MQ-manager
// sweep. events/op counts the simulator events one request costs.
func BenchmarkEchoRequest(b *testing.B) {
	for _, c := range echoCeilings {
		b.Run(c.name, func(b *testing.B) {
			r := newEchoRig(b, c.proto, c.traced, c.batched)
			defer r.b.tb.Sim.Shutdown()
			s := r.b.tb.Sim
			start := s.Executed()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.request(b)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.Executed()-start)/float64(b.N), "events/op")
		})
	}
}

func TestEchoRequestAllocs(t *testing.T) {
	events := make(map[core.Proto]uint64) // untraced rigs' events over the run
	for _, c := range echoCeilings {
		t.Run(c.name, func(t *testing.T) {
			r := newEchoRig(t, c.proto, c.traced, c.batched)
			defer r.b.tb.Sim.Shutdown()
			s := r.b.tb.Sim
			start := s.Executed()
			if n := testing.AllocsPerRun(200, func() { r.request(t) }); n > c.ceiling {
				t.Fatalf("one %s echo request allocates %.1f objects, want at most %.0f", c.name, n, c.ceiling)
			}
			ran := s.Executed() - start
			if c.batched {
				return
			}
			if !c.traced {
				events[c.proto] = ran
				return
			}
			if got := r.spans.EndToEnd().Count(); got != r.seq {
				t.Errorf("%d of %d traced requests closed complete spans", got, r.seq)
			}
			if got := r.spans.Events().Count(trace.Forward); got != r.seq {
				t.Errorf("ring holds %d forward events for %d requests", got, r.seq)
			}
			if want, ok := events[c.proto]; ok && ran != want {
				t.Errorf("traced %v echo executed %d events, untraced %d", c.proto, ran, want)
			}
		})
	}
}
