package core_test

import (
	"testing"
	"time"

	"lynx/internal/core"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
)

// echoRig is one warm UDP echo deployment driven one request at a time from
// outside any simulated process: Lynx on BlueField in front of four GPU
// mqueues whose persistent threadblocks echo each request back.
type echoRig struct {
	b       *bed
	cli     *netstack.UDPSocket
	to      netstack.Addr
	payload []byte
}

func newEchoRig(tb testing.TB) *echoRig {
	b := newBed(tb, 1)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, err := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 4)
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := rt.AddService(core.UDP, 7000, nil, 4, h)
	if err != nil {
		tb.Fatal(err)
	}
	startEchoTBs(tb, b, h, 0)
	if err := rt.Start(); err != nil {
		tb.Fatal(err)
	}
	r := &echoRig{b: b, cli: b.client.MustUDPBind(9000), to: svc.Addr(), payload: make([]byte, 64)}
	// Warm every pool on the path: frames, waiter nodes, timer records (the
	// MQ manager's watchdog-bounded parks leave 5 ms timers pending).
	for i := 0; i < 500; i++ {
		r.request(tb)
	}
	return r
}

// request sends one 64 B request and runs the simulation until its echo is
// back at the client.
func (r *echoRig) request(tb testing.TB) {
	s := r.b.tb.Sim
	r.cli.SendTo(r.to, r.payload)
	deadline := s.Now().Add(time.Millisecond)
	for r.cli.Pending() == 0 {
		if s.Now() >= deadline {
			tb.Fatal("no echo within 1ms")
		}
		s.RunUntil(s.Now().Add(time.Microsecond))
	}
	if _, ok := r.cli.TryRecv(); !ok {
		tb.Fatal("echo vanished")
	}
}

// BenchmarkEchoRequest is the core layer's benchmark: one warm UDP echo
// request, SNIC → GPU → SNIC, through the Task-hosted receive workers and
// MQ-manager sweep. events/op counts the simulator events one request costs.
func BenchmarkEchoRequest(b *testing.B) {
	r := newEchoRig(b)
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
}

// One warm echo request allocates only the copies their receivers keep: the
// client's and the runtime's datagram payloads, the accelerator's received
// message and the drained response.
func TestEchoRequestAllocs(t *testing.T) {
	r := newEchoRig(t)
	defer r.b.tb.Sim.Shutdown()
	if n := testing.AllocsPerRun(200, func() { r.request(t) }); n > 6 {
		t.Fatalf("one echo request allocates %.1f objects, want at most 6", n)
	}
}
