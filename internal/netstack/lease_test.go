package netstack

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"lynx/internal/check"
	"lynx/internal/sim"
)

// armedNet is newNet with checks armed, so every buffer handed back to the
// network reads 0xDB.
func armedNet() (*sim.Sim, *Network) {
	s, n, _ := newNet()
	n.RegisterInvariants(check.New())
	return s, n
}

// poisoned reports whether b was handed back to the network: every byte
// reads the poison.
func poisoned(b []byte) bool {
	return len(b) > 0 && bytes.Count(b, []byte{poison}) == len(b)
}

// settle runs the simulation long enough for every datagram in flight to
// land.
func settle(s *sim.Sim) { s.RunUntil(s.Now().Add(time.Millisecond)) }

// kickedReader is a process that receives one datagram on sock each time it
// is kicked, and holds the received payload, uncopied, in held.
type kickedReader struct {
	kick *sim.Chan[struct{}]
	held []byte
}

func newKickedReader(s *sim.Sim, name string, sock *UDPSocket) *kickedReader {
	r := &kickedReader{kick: sim.NewChan[struct{}](s, 0)}
	s.Spawn(name, func(p *sim.Proc) {
		for {
			r.kick.Get(p)
			r.held = sock.Recv(p).Payload
		}
	})
	return r
}

// recv makes the reader receive the datagram already queued for it.
func (r *kickedReader) recv(s *sim.Sim) {
	r.kick.TryPut(struct{}{})
	settle(s)
}

// Two processes drain one socket. Each payload stays intact until its own
// receiver receives again, however often the other process receives and
// however many sends reuse the buffers it hands back; then it reads 0xDB.
func TestLeaseIsPerReceivingProcess(t *testing.T) {
	s, n := armedNet()
	src := n.AddHost("a").MustUDPBind(1)
	dst := n.AddHost("b").MustUDPBind(2)
	a, b := newKickedReader(s, "a", dst), newKickedReader(s, "b", dst)
	send := func(payload string) {
		src.SendTo(dst.Addr(), []byte(payload))
		settle(s)
	}
	intact := func(r *kickedReader, name, want string) {
		t.Helper()
		if string(r.held) != want {
			t.Fatalf("%s holds %q, want %q", name, r.held, want)
		}
	}

	send("a-first")
	a.recv(s)
	aFirst := a.held
	for i := 0; i < 4; i++ {
		send(fmt.Sprintf("b-dg-%d", i)) // takes the buffer b handed back last
		bLast := b.held
		b.recv(s)
		intact(b, "b", fmt.Sprintf("b-dg-%d", i))
		if i > 0 && !poisoned(bLast) {
			t.Fatalf("b's payload %q survived b's next receive", bLast)
		}
		intact(a, "a", "a-first")
	}
	send("a-second")
	bHeld := b.held
	a.recv(s)
	if !poisoned(aFirst) {
		t.Fatalf("a's payload %q survived a's next receive", aFirst)
	}
	intact(a, "a", "a-second")
	if string(bHeld) != "b-dg-3" {
		t.Fatalf("a's receive ended b's lease: b holds %q", bHeld)
	}
	s.Shutdown()
}

// A TCP message stays intact while the peer sends more, until its reader's
// next receive; then it reads 0xDB.
func TestTCPMessageLentUntilNextRecv(t *testing.T) {
	s, n := armedNet()
	cli, srv := dialPair(t, s, n)
	kick := sim.NewChan[struct{}](s, 0)
	var held []byte
	s.Spawn("reader", func(p *sim.Proc) {
		for {
			kick.Get(p)
			msg, err := srv.Recv(p)
			if err != nil {
				return
			}
			held = msg
		}
	})
	send := func(m string) {
		s.Spawn("sender", func(p *sim.Proc) { cli.Send(p, []byte(m)) })
		settle(s)
	}
	recv := func() {
		kick.TryPut(struct{}{})
		settle(s)
	}

	send("msg-1")
	recv()
	first := held
	send("msg-2")
	send("msg-3")
	if string(first) != "msg-1" {
		t.Fatalf("message reads %q before the next receive, want %q", first, "msg-1")
	}
	recv()
	if !poisoned(first) {
		t.Fatalf("message %q survived its reader's next receive", first)
	}
	if string(held) != "msg-2" {
		t.Fatalf("second receive got %q, want %q", held, "msg-2")
	}
	s.Shutdown()
}

// RecvBatchT lends every payload of the batch, inline or after a park, until
// the task's next receive.
func TestRecvBatchLendsEveryPayload(t *testing.T) {
	s, n := armedNet()
	src := n.AddHost("a").MustUDPBind(1)
	dst := n.AddHost("b").MustUDPBind(2)
	kick := sim.NewChan[struct{}](s, 0)
	var batches [][][]byte
	s.SpawnTask("batch", func(tk *sim.Task) {
		buf := make([]Datagram, 4)
		var recv func()
		var got func(int)
		got = func(n int) {
			var batch [][]byte
			for _, dg := range buf[:n] {
				batch = append(batch, dg.Payload)
			}
			batches = append(batches, batch)
			if _, ok := kick.GetT(tk, func(struct{}) { recv() }); ok {
				recv()
			}
		}
		recv = func() {
			if n, ok := dst.RecvBatchT(tk, buf, got); ok {
				got(n)
			}
		}
		if _, ok := kick.GetT(tk, func(struct{}) { recv() }); ok {
			recv()
		}
	})
	send := func(payloads ...string) {
		for _, p := range payloads {
			src.SendTo(dst.Addr(), []byte(p))
		}
		settle(s)
	}
	recv := func() {
		kick.TryPut(struct{}{})
		settle(s)
	}

	send("x0", "x1", "x2")
	recv() // three queued: an inline batch
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("batches %q, want one of three", batches)
	}
	// Another receiver takes and hands back buffers, and sends reuse them.
	for _, p := range []string{"y0", "y1", "y2"} {
		send(p)
		dst.TryRecv()
	}
	for i, b := range batches[0] {
		if want := fmt.Sprintf("x%d", i); string(b) != want {
			t.Fatalf("batch payload %d reads %q before the task's next receive, want %q", i, b, want)
		}
	}
	recv() // nothing queued: the task parks
	for i, b := range batches[0] {
		if !poisoned(b) {
			t.Fatalf("batch payload %d (%q) survived the task's next receive", i, b)
		}
	}
	send("z0") // wakes the parked batch receive
	if len(batches) != 2 || string(batches[1][0]) != "z0" {
		t.Fatalf("batches %q, want a second holding z0", batches)
	}
	recv()
	if !poisoned(batches[1][0]) {
		t.Fatalf("parked batch payload %q survived the task's next receive", batches[1][0])
	}
	s.Shutdown()
}

// TryRecv lends its payload until the next TryRecv, whatever processes
// receive in between.
func TestTryRecvLendsUntilNextTryRecv(t *testing.T) {
	s, n := armedNet()
	src := n.AddHost("a").MustUDPBind(1)
	dst := n.AddHost("b").MustUDPBind(2)
	r := newKickedReader(s, "reader", dst)
	send := func(payload string) {
		src.SendTo(dst.Addr(), []byte(payload))
		settle(s)
	}

	send("polled")
	dg, ok := dst.TryRecv()
	if !ok {
		t.Fatal("nothing to poll")
	}
	for _, p := range []string{"r0", "r1", "r2"} {
		send(p)
		r.recv(s)
	}
	if string(dg.Payload) != "polled" {
		t.Fatalf("polled payload reads %q before the next poll, want %q", dg.Payload, "polled")
	}
	dst.TryRecv()
	if !poisoned(dg.Payload) {
		t.Fatalf("polled payload %q survived the next poll", dg.Payload)
	}
	s.Shutdown()
}

// A second reader that receives on a connection while the first waits
// panics: its receive would hand the first reader's message back.
func TestTCPSecondReaderPanics(t *testing.T) {
	s, n := armedNet()
	_, srv := dialPair(t, s, n)
	s.SpawnTask("first", func(tk *sim.Task) {
		srv.RecvQueuedT(tk, func([]byte, sim.Time, error) {})
	})
	settle(s)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "second reader") {
			t.Fatalf("second reader: recovered %v, want a second-reader panic", r)
		}
	}()
	s.SpawnTask("second", func(tk *sim.Task) {
		srv.RecvQueuedT(tk, func([]byte, sim.Time, error) {})
	})
	settle(s)
}
