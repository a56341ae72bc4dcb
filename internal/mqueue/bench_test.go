package mqueue

import (
	"testing"

	"lynx/internal/sim"
)

// roundTrip drives warm request/response round trips through one grouped
// queue, both ends on the task substrate with their continuations bound
// once: the SNIC pushes a request, the accelerator receives it and sends it
// back, and the SNIC, woken by the group's activity gate, refreshes the
// headers, pops the response and commits the drain.
type roundTrip struct {
	s     *sim.Sim
	g     *Group
	q     *Queue
	aq    *AccelQueue
	gate  *sim.Gate // the group's activity gate
	start *sim.Gate // fired to begin a batch
	req   []byte
	out   []TxMsg
	left  int // round trips still to run in the batch
	ver   uint64

	snic, accel                   *sim.Task
	push, poll, refreshed, commit func()
	pushed                        func(int, error)
	popped                        func(int)
	received                      func(Msg)
	sent                          func(error)
}

func newRoundTrip(tb testing.TB) *roundTrip {
	r := newRig(tb, false, 1<<16)
	cfg := Config{Kind: ServerQueue, Slots: 16, SlotSize: 128}
	g, err := NewGroup(r.region, 0, cfg, 1, r.qp)
	if err != nil {
		tb.Fatal(err)
	}
	aqs, err := AttachGroup(r.region, 0, cfg, 1, gpuProfile(r.params))
	if err != nil {
		tb.Fatal(err)
	}
	rt := &roundTrip{s: r.s, g: g, q: g.Queue(0), aq: aqs[0], gate: g.ActivityGate(),
		start: sim.NewGate(r.s), req: []byte("round-trip-request"), out: make([]TxMsg, 1)}
	rt.push = func() { rt.q.PushT(rt.snic, rt.req, 0, rt.pushed) }
	rt.pushed = func(_ int, err error) {
		if err != nil {
			panic(err)
		}
		rt.poll()
	}
	rt.poll = func() {
		rt.ver = rt.gate.Version()
		rt.g.RefreshT(rt.snic, rt.refreshed)
	}
	rt.refreshed = func() {
		if rt.q.Ready() {
			rt.q.PopTxManyT(rt.snic, 1, rt.out, rt.popped)
		} else if rt.gate.WaitT(rt.snic, rt.ver, rt.poll) {
			rt.poll()
		}
	}
	rt.popped = func(int) { rt.q.CommitTxT(rt.snic, rt.commit) }
	rt.commit = func() {
		if rt.left--; rt.left > 0 {
			rt.push()
		} else {
			rt.start.WaitT(rt.snic, rt.start.Version(), rt.push)
		}
	}
	rt.received = func(m Msg) { rt.aq.SendT(rt.accel, uint16(m.Slot), m.Payload, 0, rt.sent) }
	rt.sent = func(err error) {
		if err != nil {
			panic(err)
		}
		rt.aq.RecvT(rt.accel, rt.received)
	}
	rt.accel = r.s.SpawnTask("gpu0/tb0", func(t *sim.Task) { rt.aq.RecvT(t, rt.received) })
	rt.snic = r.s.SpawnTask("snic", func(t *sim.Task) { rt.start.WaitT(t, rt.start.Version(), rt.push) })
	r.s.Run()
	return rt
}

// run completes n round trips.
func (rt *roundTrip) run(n int) {
	rt.left = n
	rt.start.Fire()
	rt.s.Run()
}

// BenchmarkAccelQueue is the mqueue layer's benchmark: one warm round trip
// through a queue, SNIC push → accelerator RecvT and SendT → SNIC pop and
// commit. events/op counts the simulator events one round trip costs.
func BenchmarkAccelQueue(b *testing.B) {
	rt := newRoundTrip(b)
	rt.run(100) // warm the op frames and the gates' waiter nodes
	start := rt.s.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	rt.run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(rt.s.Executed()-start)/float64(b.N), "events/op")
	if received, sent, _ := rt.aq.Stats(); received != sent || received != uint64(b.N+100) {
		b.Fatalf("received %d, sent %d; want %d round trips", received, sent, b.N+100)
	}
}

// TestAccelQueueRoundTripAllocatesNothing pins the allocation-free queue:
// once warm, a round trip through both ends' task forms allocates nothing.
func TestAccelQueueRoundTripAllocatesNothing(t *testing.T) {
	rt := newRoundTrip(t)
	rt.run(100)
	if n := testing.AllocsPerRun(100, func() { rt.run(1) }); n != 0 {
		t.Fatalf("one round trip allocates %.2f objects, want 0", n)
	}
}
