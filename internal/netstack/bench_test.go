package netstack

import (
	"testing"

	"lynx/internal/sim"
)

// udpSend drives warm datagrams from one host's socket to another's: the
// receiver task parks in RecvT, and each delivery releases its payload and
// sends the next datagram. The continuations are bound once.
type udpSend struct {
	s        *sim.Sim
	from, to *UDPSocket
	dst      Addr
	payload  []byte
	left     int // datagrams still to send in the batch
	rx       *sim.Task
	received func(Datagram)
}

func newUDPSend(tb testing.TB) *udpSend {
	s, n, _ := newNet()
	u := &udpSend{s: s, from: n.AddHost("client").MustUDPBind(9000),
		to: n.AddHost("server").MustUDPBind(7000), payload: make([]byte, 64)}
	u.dst = u.to.Addr()
	u.received = func(dg Datagram) {
		if len(dg.Payload) != len(u.payload) {
			tb.Fatalf("received %d bytes, want %d", len(dg.Payload), len(u.payload))
		}
		u.to.Release(dg.Payload)
		if u.left--; u.left > 0 {
			u.from.SendTo(u.dst, u.payload)
		}
		u.recv()
	}
	u.rx = s.SpawnTask("server", func(*sim.Task) { u.recv() })
	s.Run()
	return u
}

// recv parks the receiver for the next datagram.
func (u *udpSend) recv() {
	if dg, ok := u.to.RecvT(u.rx, u.received); ok {
		u.received(dg)
	}
}

// run sends and receives n datagrams, one in flight at a time.
func (u *udpSend) run(n int) {
	u.left = n
	u.from.SendTo(u.dst, u.payload)
	u.s.Run()
}

// BenchmarkUDPSend is the netstack layer's benchmark: one warm 64-byte
// datagram from a socket's SendTo across the switch to the receiving
// socket's RecvT, its payload released. events/op counts the simulator
// events one datagram costs.
func BenchmarkUDPSend(b *testing.B) {
	u := newUDPSend(b)
	u.run(100) // warm the payload pool and the receiver's waiter node
	start := u.s.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	u.run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(u.s.Executed()-start)/float64(b.N), "events/op")
	if u.left != 0 {
		b.Fatalf("%d datagrams never arrived", u.left)
	}
}
