package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"lynx/internal/accel"
	"lynx/internal/check"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/snic"
	"lynx/internal/trace"
)

// The runtime lends buffers: an RDMA READ fills a buffer its in-flight call
// owns and lends it to the continuation, and push slot images live in
// recycled frames. A buffer reused before its wire time would corrupt a
// message or a header snapshot. This drives distinct payloads through the
// three ring modes that split or delay writes — the barrier, uncoalesced
// doorbells, and coalesced writes on relaxed memory — with RDMA errors
// retried go-back-N (completions in posting order, snapshots in wire order),
// two-slot rings whose ring-full header refreshes run concurrently with the
// group refreshes of seven MQ-manager contexts, and invariants armed. Every
// echoed byte must match what its client sent, and every header absorbed
// must satisfy the ring invariants.
func TestLentBuffersNeverAlias(t *testing.T) {
	modes := []struct {
		name    string
		relaxed bool
		cfg     mqueue.Config
	}{
		{"barrier", true, mqueue.Config{Barrier: true}},
		{"no-coalesce", false, mqueue.Config{NoCoalesce: true}},
		{"relaxed", true, mqueue.Config{}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			const queues, clients, perClient = 7, 48, 20
			p := model.Default()
			tb := snic.NewTestbedWith(3, &p, fault.Config{Seed: 3, RDMAErrRate: 0.05})
			ck := check.New()
			tb.EnableInvariants(ck)
			server := tb.NewMachine("server1", 6)
			bf := server.AttachBlueField("bf1")
			gpu := server.AddGPU("gpu0", accel.K40m, m.relaxed, "server1")
			rt := core.NewRuntime(bf.Platform(7))
			cfg := m.cfg
			cfg.Kind, cfg.Slots, cfg.SlotSize = mqueue.ServerQueue, 2, 96
			h, err := rt.Register(gpu, cfg, queues)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := rt.AddService(core.UDP, 7000, nil, queues, h)
			if err != nil {
				t.Fatal(err)
			}
			b := &bed{tb: tb, gpu: gpu}
			startEchoTBs(t, b, h, 50*time.Microsecond)
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}

			answered, done := 0, 0
			for c := 0; c < clients; c++ {
				host := tb.AddClient(fmt.Sprintf("client%d", c))
				sock := host.MustUDPBind(9000)
				rng := rand.New(rand.NewPCG(3, uint64(c)))
				sent := map[uint64][]byte{} // this client's requests by span id
				tb.Sim.Spawn(host.Name(), func(p *sim.Proc) {
					defer func() { done++ }()
					for i := 0; i < perClient; i++ {
						seq := uint64(c*perClient + i + 1)
						req := make([]byte, 64)
						binary.LittleEndian.PutUint64(req, seq)
						for j := 8; j < len(req); j++ {
							req[j] = byte(rng.Uint32())
						}
						sent[seq] = req
						if echo(t, p, sock, svc.Addr(), seq, req, sent) {
							answered++
						}
					}
				})
			}
			tb.Sim.RunUntilCond(sim.Time(2*time.Second), time.Millisecond, func() bool { return done == clients })
			tb.Sim.Shutdown()

			if answered != clients*perClient {
				t.Fatalf("%d of %d requests answered", answered, clients*perClient)
			}
			if st := rt.Stats(); st.DroppedOverflow == 0 {
				t.Errorf("no ring was ever full, so no ring-full header refresh ran: %s", st)
			}
			if tb.Faults.Stats().RDMAErrors == 0 {
				t.Error("no RDMA error was injected")
			}
			if rep := ck.Finalize(); !rep.OK() {
				t.Fatalf("invariant violations:\n%s", rep)
			}
		})
	}
}

// echo sends req until its echo comes back. Every datagram that arrives
// must echo, byte for byte, a request this client sent (sent): a lent
// buffer reused too early shows up as another request's bytes under this
// request's reply destination. It reports whether req was answered.
func echo(t *testing.T, p *sim.Proc, sock *netstack.UDPSocket, to netstack.Addr, seq uint64, req []byte, sent map[uint64][]byte) bool {
	for attempt := 0; attempt < 50; attempt++ {
		sock.SendTo(to, req)
		deadline := p.Now().Add(2 * time.Millisecond)
		for {
			left := deadline.Sub(p.Now())
			if left <= 0 {
				break
			}
			dg, ok, _ := sock.RecvTimeout(p, left)
			if !ok {
				break
			}
			id := trace.SpanID(dg.Payload)
			if want, ok := sent[id]; !ok || !bytes.Equal(dg.Payload, want) {
				t.Errorf("request %d answered with corrupted or foreign bytes %x", seq, dg.Payload)
			}
			if id == seq {
				return true
			}
		}
	}
	return false
}
