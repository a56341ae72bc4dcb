package accel

import (
	"bytes"
	"testing"
	"time"

	"lynx/internal/mqueue"
	"lynx/internal/rdma"
	"lynx/internal/sim"
)

// serveRig is one GPU server queue with its SNIC-side end: the driver pushes
// requests through snicQ and drains the responses the kernel sends on aq.
type serveRig struct {
	*rig
	g     *GPU
	snicQ *mqueue.Queue
	aq    *mqueue.AccelQueue
	out   []mqueue.TxMsg
}

func newServeRig(t *testing.T) *serveRig {
	t.Helper()
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	nic := r.fab.AddDevice("nic", nil)
	r.fab.Connect(nic, g.Device(), r.params.PCIeLatency, r.params.PCIeBandwidth)
	qp := rdma.NewEngine(r.s, &r.params, r.fab, nic).CreateQP(g.Device(), rdma.QPConfig{Kind: rdma.RC})
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 64}
	region := g.Device().Mem.MustAlloc("mq", cfg.Footprint())
	snicQ, err := mqueue.New(region, 0, cfg, qp)
	if err != nil {
		t.Fatal(err)
	}
	aq, err := mqueue.Attach(region, 0, cfg, g.Profile())
	if err != nil {
		t.Fatal(err)
	}
	return &serveRig{rig: r, g: g, snicQ: snicQ, aq: aq, out: make([]mqueue.TxMsg, 1)}
}

// call pushes req and polls until its response drains, returning the
// response (lent until the next call).
func (r *serveRig) call(p *sim.Proc, req []byte) []byte {
	if _, err := r.snicQ.Push(p, req, 0); err != nil {
		panic(err)
	}
	for {
		r.snicQ.Refresh(p)
		if r.snicQ.PopTxMany(p, 1, r.out) == 1 {
			r.snicQ.CommitTx(p)
			return r.out[0].Payload
		}
		p.Sleep(time.Microsecond)
	}
}

// echoEvents drives n requests through a kernel that kernel launches on r and
// returns the simulator events executed.
func echoEvents(t *testing.T, n int, kernel func(r *serveRig)) uint64 {
	r := newServeRig(t)
	kernel(r)
	req := []byte("ping-0123")
	r.s.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if got := r.call(p, req); !bytes.Equal(got, req) {
				t.Errorf("response %q, want the request %q echoed", got, req)
			}
		}
	})
	r.s.Run()
	return r.s.Executed()
}

// A zero service time charges no compute, so Serve's echo kernel costs
// exactly the events of the explicit recv → send loop it replaces; a nil
// handle echoes the request.
func TestServeZeroServiceAddsNoEvent(t *testing.T) {
	loop := echoEvents(t, 20, func(r *serveRig) {
		r.g.LaunchPersistent(r.s, 1, func(tb *TB) {
			for {
				m := r.aq.Recv(tb.Proc())
				if r.aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
					return
				}
			}
		})
	})
	served := echoEvents(t, 20, func(r *serveRig) {
		if err := r.g.Serve(r.s, []*mqueue.AccelQueue{r.aq}, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if served != loop {
		t.Fatalf("Serve echo executed %d events, the explicit loop %d", served, loop)
	}
}

// A request shorter than minLen is dropped before the compute is charged;
// the handler sees only full requests and builds into its reused buffer.
func TestServeDropsShortRequestUncharged(t *testing.T) {
	r := newServeRig(t)
	const service = 10 * time.Microsecond
	handled := 0
	if err := r.g.Serve(r.s, []*mqueue.AccelQueue{r.aq}, 8, service, func(req, out []byte) []byte {
		handled++
		return append(append(out, "ok:"...), req...)
	}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.s.Spawn("driver", func(p *sim.Proc) {
		if _, err := r.snicQ.Push(p, []byte("short"), 0); err != nil {
			t.Error(err)
		}
		got = bytes.Clone(r.call(p, []byte("full-req")))
	})
	r.s.Run()
	if string(got) != "ok:full-req" {
		t.Fatalf("response %q, want %q", got, "ok:full-req")
	}
	if handled != 1 || r.g.BusyTime() != service {
		t.Fatalf("handled %d requests, busy %v; want 1 and %v (the short request uncharged)", handled, r.g.BusyTime(), service)
	}
}

// Once warm, the serving loop allocates nothing per request: the response
// buffer is reused and the payload borrowed from the RX slot.
func TestServeSteadyStateAllocatesNothing(t *testing.T) {
	r := newServeRig(t)
	if err := r.g.Serve(r.s, []*mqueue.AccelQueue{r.aq}, 0, time.Microsecond, func(req, out []byte) []byte {
		return append(append(out, '>'), req...)
	}); err != nil {
		t.Fatal(err)
	}
	const batch = 100
	req := []byte("steady-state")
	// The driver runs on the task substrate with its continuations bound
	// once, so every allocation the step measures would be the kernel's.
	r.s.SpawnTask("driver", func(t *sim.Task) {
		var push, poll, pop func()
		var pushed func(int, error)
		var popped func(int)
		push = func() { r.snicQ.PushT(t, req, 0, pushed) }
		pushed = func(int, error) { poll() }
		poll = func() { r.snicQ.RefreshT(t, pop) }
		pop = func() { r.snicQ.PopTxManyT(t, 1, r.out, popped) }
		popped = func(n int) {
			if n == 0 {
				t.Sleep(time.Microsecond, poll)
				return
			}
			r.snicQ.CommitTxT(t, push)
		}
		push()
	})
	step := func() { r.s.RunUntil(r.s.Now().Add(batch * 20 * time.Microsecond)) }
	step() // warm: grow the response buffer and the rings' scratch
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("%v allocs per %d-request step, want 0", n, batch)
	}
	r.s.Shutdown()
}

// Serve fails, launching nothing, when the queues exceed residency.
func TestServeResidencyOverflow(t *testing.T) {
	r := newRig()
	g := r.gpu("gpu0", GPUConfig{Model: K40m})
	if err := g.Serve(r.s, make([]*mqueue.AccelQueue, g.MaxThreadblocks()+1), 0, 0, nil); err == nil {
		t.Fatal("Serve beyond residency must fail")
	}
	if g.Resident() != 0 || r.s.Live() != 0 {
		t.Fatalf("a failed Serve left %d TBs resident, %d procs live", g.Resident(), r.s.Live())
	}
}

// A refused send — here a response larger than a slot — ends the
// threadblock; later requests stay unserved.
func TestServeRefusedSendEndsThreadblock(t *testing.T) {
	r := newServeRig(t)
	background := r.s.Live() // the RDMA engine's tasks
	if err := r.g.Serve(r.s, []*mqueue.AccelQueue{r.aq}, 0, 0, func(req, out []byte) []byte {
		return append(out, make([]byte, 1024)...)
	}); err != nil {
		t.Fatal(err)
	}
	r.s.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, err := r.snicQ.Push(p, []byte("req"), 0); err != nil {
				t.Error(err)
			}
		}
	})
	r.s.Run()
	if received, sent, _ := r.aq.Stats(); received != 1 || sent != 0 {
		t.Fatalf("received %d, sent %d; want 1 and 0", received, sent)
	}
	if live := r.s.Live() - background; live != 0 {
		t.Fatalf("%d procs beside the engine's live after the refused send, want 0", live)
	}
}
