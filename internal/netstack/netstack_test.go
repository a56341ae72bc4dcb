package netstack

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lynx/internal/check"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/sim"
)

func newNet() (*sim.Sim, *Network, model.Params) {
	s := sim.New(sim.Config{Seed: 5})
	p := model.Default()
	return s, New(s, &p), p
}

func TestUDPRoundTrip(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	srvSock := server.MustUDPBind(7000)
	cliSock := client.MustUDPBind(9000)

	var rtt time.Duration
	s.Spawn("server", func(p *sim.Proc) {
		for {
			dg := srvSock.Recv(p)
			srvSock.SendTo(dg.From, append([]byte("echo:"), dg.Payload...))
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		cliSock.SendTo(srvSock.Addr(), []byte("ping"))
		dg := cliSock.Recv(p)
		rtt = p.Now().Sub(start)
		if string(dg.Payload) != "echo:ping" {
			t.Errorf("payload %q", dg.Payload)
		}
		if dg.From != srvSock.Addr() {
			t.Errorf("from %v", dg.From)
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if rtt <= 0 || rtt > 10*time.Microsecond {
		t.Fatalf("wire RTT %v implausible for 40GbE + cut-through switch", rtt)
	}
}

func TestUDPUnknownDestinationsDropped(t *testing.T) {
	s, n, _ := newNet()
	h := n.AddHost("a")
	sock := h.MustUDPBind(1)
	s.Spawn("x", func(p *sim.Proc) {
		sock.SendTo(Addr{Host: "nowhere", Port: 5}, []byte("x")) // no such host
		sock.SendTo(Addr{Host: "a", Port: 99}, []byte("y"))      // no such port
		p.Sleep(time.Millisecond)
		if _, ok := sock.TryRecv(); ok {
			t.Error("unexpected delivery")
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
}

func TestUDPQueueOverflowDrops(t *testing.T) {
	s, n, _ := newNet()
	a, b := n.AddHost("a"), n.AddHost("b")
	src := a.MustUDPBind(1)
	b.MustUDPBind(2)
	s.Spawn("flood", func(p *sim.Proc) {
		for i := 0; i < DefaultRxQueue+100; i++ {
			src.SendTo(Addr{Host: "b", Port: 2}, []byte{1})
		}
		p.Sleep(100 * time.Millisecond)
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if b.Dropped() != 100 {
		t.Fatalf("dropped %d, want 100", b.Dropped())
	}
}

// A duplicated datagram travels in a buffer of its own: receiving the
// duplicate ends the first delivery's lease, the next send reuses that
// buffer, and the duplicate still carries the bytes that were sent.
func TestDuplicateSurvivesRelease(t *testing.T) {
	s, n, _ := newNet()
	n.SetFaults(fault.NewPlan(fault.Config{DupRate: 1}))
	n.RegisterInvariants(check.New()) // armed checks poison released buffers
	src := n.AddHost("a").MustUDPBind(1)
	dst := n.AddHost("b").MustUDPBind(2)
	deliver := func(payload string) {
		src.SendTo(dst.Addr(), []byte(payload))
		s.RunUntil(s.Now().Add(time.Millisecond))
	}

	deliver("original")
	first, ok := dst.TryRecv()
	if !ok || dst.Pending() != 1 {
		t.Fatalf("got delivery %v with %d pending, want the original and its duplicate", ok, dst.Pending())
	}
	firstBuf := &first.Payload[0]
	dup, _ := dst.TryRecv() // hands the first delivery's buffer back
	deliver("replaced")     // same size class: its copy takes that buffer
	if string(dup.Payload) != "original" {
		t.Fatalf("duplicate carries %q, want %q", dup.Payload, "original")
	}
	third, _ := dst.TryRecv()
	if &third.Payload[0] != firstBuf {
		t.Fatal("the third datagram did not reuse the released buffer")
	}
	if string(third.Payload) != "replaced" {
		t.Fatalf("third datagram carries %q, want %q", third.Payload, "replaced")
	}
	s.Shutdown()
}

func TestBindConflicts(t *testing.T) {
	_, n, _ := newNet()
	h := n.AddHost("a")
	h.MustUDPBind(5)
	if _, err := h.UDPBind(5); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v", err)
	}
	h.MustTCPListen(5) // TCP and UDP namespaces are separate
	if _, err := h.TCPListen(5); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkSerializationContention(t *testing.T) {
	s, n, _ := newNet()
	a, b := n.AddHost("a"), n.AddHost("b")
	src := a.MustUDPBind(1)
	dst := b.MustUDPBind(2)
	const msgs, size = 100, 4096
	var last sim.Time
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			src.SendTo(dst.Addr(), make([]byte, size))
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			dst.Recv(p)
			last = p.Now()
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	// 100 x 4138 B at 40 Gb/s ≈ 82.8 µs of pure serialization on the
	// bottleneck link.
	minTime := model.TransferTime(msgs*(size+udpOverhead), 40e9)
	if last < sim.Time(minTime) {
		t.Fatalf("finished at %v, faster than link allows (%v)", last, minTime)
	}
	if last > sim.Time(2*minTime) {
		t.Fatalf("finished at %v, way beyond serialization bound %v", last, minTime)
	}
}

func TestTCPConnectSendRecv(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)

	s.Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		for {
			msg, err := conn.Recv(p)
			if err != nil {
				return
			}
			if err := conn.Send(p, append([]byte("ok:"), msg...)); err != nil {
				return
			}
		}
	})
	var got []byte
	s.Spawn("client", func(p *sim.Proc) {
		conn, err := client.TCPDial(p, server.Addr(80))
		if err != nil {
			t.Error(err)
			return
		}
		if conn.RemoteAddr() != server.Addr(80) {
			t.Errorf("remote %v", conn.RemoteAddr())
		}
		conn.Send(p, []byte("hello"))
		got, _ = conn.Recv(p)
		conn.Close()
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if string(got) != "ok:hello" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPDialErrors(t *testing.T) {
	s, n, _ := newNet()
	client := n.AddHost("client")
	n.AddHost("server")
	s.Spawn("client", func(p *sim.Proc) {
		if _, err := client.TCPDial(p, Addr{Host: "ghost", Port: 1}); err == nil {
			t.Error("dial to unknown host should fail")
		}
		if _, err := client.TCPDial(p, Addr{Host: "server", Port: 1}); err == nil {
			t.Error("dial to closed port should fail")
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
}

func TestTCPCloseDelivery(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	var errGot error
	s.Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		_, errGot = conn.Recv(p)
	})
	s.Spawn("client", func(p *sim.Proc) {
		conn, _ := client.TCPDial(p, server.Addr(80))
		p.Sleep(time.Microsecond)
		conn.Close()
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if !errors.Is(errGot, ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", errGot)
	}
}

// The task forms of dial, accept and receive see what the coroutine forms
// see, at the same instants and for the same number of scheduler events:
// each message with its queue-entry time, then the close when its FIN lands.
func TestTCPTaskFormsMatchProcForms(t *testing.T) {
	run := func(task bool) ([]string, uint64) {
		s, n, _ := newNet()
		server := n.AddHost("server")
		client := n.AddHost("client")
		l := server.MustTCPListen(80)
		var log []string
		got := func(now sim.Time, msg []byte, enq sim.Time, err error) {
			log = append(log, fmt.Sprintf("%v %q enq=%v err=%v", now, msg, enq, err))
		}
		send := func(conn *TCPConn, p *sim.Proc) {
			for _, m := range []string{"a", "bb", "ccc"} {
				conn.Send(p, []byte(m))
				p.Sleep(150 * time.Microsecond)
			}
			conn.Close()
		}
		if task {
			s.SpawnTask("server", func(tk *sim.Task) {
				var recv func([]byte, sim.Time, error)
				var conn *TCPConn
				recv = func(msg []byte, enq sim.Time, err error) {
					got(tk.Now(), msg, enq, err)
					if err == nil {
						conn.RecvQueuedT(tk, recv)
					}
				}
				accepted := func(c *TCPConn) {
					conn = c
					conn.RecvQueuedT(tk, recv)
				}
				if c, ok := l.AcceptT(tk, accepted); ok {
					accepted(c)
				}
			})
			s.SpawnTask("client", func(tk *sim.Task) {
				client.TCPDialT(tk, server.Addr(80), func(conn *TCPConn, err error) {
					if err != nil {
						t.Error(err)
						return
					}
					s.Spawn("sender", func(p *sim.Proc) { send(conn, p) })
				})
			})
		} else {
			s.Spawn("server", func(p *sim.Proc) {
				conn := l.Accept(p)
				for {
					msg, enq, err := conn.RecvQueued(p)
					got(p.Now(), msg, enq, err)
					if err != nil {
						return
					}
				}
			})
			s.Spawn("client", func(p *sim.Proc) {
				conn, err := client.TCPDial(p, server.Addr(80))
				if err != nil {
					t.Error(err)
					return
				}
				s.Spawn("sender", func(p *sim.Proc) { send(conn, p) })
			})
		}
		s.RunUntil(sim.Time(time.Second))
		s.Shutdown()
		return log, s.Executed()
	}
	procLog, procEvents := run(false)
	taskLog, taskEvents := run(true)
	if fmt.Sprint(procLog) != fmt.Sprint(taskLog) || procEvents != taskEvents {
		t.Fatalf("task forms diverge:\n proc (%d events): %q\n task (%d events): %q",
			procEvents, procLog, taskEvents, taskLog)
	}
	if len(procLog) != 4 || !strings.Contains(procLog[3], ErrConnClosed.Error()) {
		t.Fatalf("want three messages then the close, got %q", procLog)
	}
}

// dialPair connects a client host to a server host's port 80 and runs the
// simulation until both ends of the connection exist.
func dialPair(t *testing.T, s *sim.Sim, n *Network) (cli, srv *TCPConn) {
	t.Helper()
	server, client := n.AddHost("server"), n.AddHost("client")
	l := server.MustTCPListen(80)
	s.Spawn("accept", func(p *sim.Proc) { srv = l.Accept(p) })
	s.Spawn("dial", func(p *sim.Proc) {
		var err error
		if cli, err = client.TCPDial(p, server.Addr(80)); err != nil {
			t.Error(err)
		}
	})
	s.RunUntil(s.Now().Add(100 * time.Microsecond))
	if cli == nil || srv == nil {
		t.Fatal("connection not established")
	}
	return cli, srv
}

// read is one receive result and the instant the reader saw it.
type read struct {
	at  sim.Time
	msg string
	err error
}

func (r read) String() string { return fmt.Sprintf("%v %q %v", r.at, r.msg, r.err) }

// readAll starts a reader of conn, in the task form or the Proc form, that
// logs every result until the first error.
func readAll(s *sim.Sim, conn *TCPConn, task bool, log *[]read) {
	if task {
		s.SpawnTask("reader", func(tk *sim.Task) {
			var k func([]byte, sim.Time, error)
			k = func(msg []byte, _ sim.Time, err error) {
				*log = append(*log, read{tk.Now(), string(msg), err})
				if err == nil {
					conn.RecvQueuedT(tk, k)
				}
			}
			conn.RecvQueuedT(tk, k)
		})
		return
	}
	s.Spawn("reader", func(p *sim.Proc) {
		for {
			msg, err := conn.Recv(p)
			*log = append(*log, read{p.Now(), string(msg), err})
			if err != nil {
				return
			}
		}
	})
}

// oneWay is the uncontended wire time of one TCP message of the given
// payload size.
func oneWay(p model.Params, payload int) time.Duration {
	bytes, frags := wireSize(payload, tcpOverhead)
	return 2*model.TransferTime(bytes, p.WireBandwidth) + 2*p.WirePropagation + time.Duration(frags)*p.SwitchLatency
}

// forms runs f with Proc-form readers, then with task-form readers.
func forms(t *testing.T, f func(t *testing.T, task bool)) {
	t.Run("proc", func(t *testing.T) { f(t, false) })
	t.Run("task", func(t *testing.T) { f(t, true) })
}

// A blocked reader parks with no timer: idle readers of both forms cost the
// simulation no events at all.
func TestTCPIdleReaderSchedulesNothing(t *testing.T) {
	s, n, _ := newNet()
	cli, srv := dialPair(t, s, n)
	var log []read
	readAll(s, srv, true, &log)
	readAll(s, cli, false, &log)
	s.RunUntil(s.Now().Add(time.Millisecond))
	before := s.Executed()
	s.RunUntil(s.Now().Add(10 * time.Millisecond))
	if d := s.Executed() - before; d != 0 {
		t.Fatalf("two idle readers executed %d events in 10ms, want 0", d)
	}
	if len(log) != 0 {
		t.Fatalf("idle readers saw %v", log)
	}
	s.Shutdown()
}

// A close wakes the parked reader at its own end at once and the peer's when
// the FIN lands; a reset wakes both ends' readers at the Abort.
func TestTCPShutWakesParkedReader(t *testing.T) {
	forms(t, func(t *testing.T, task bool) {
		for _, reset := range []bool{false, true} {
			s, n, p := newNet()
			cli, srv := dialPair(t, s, n)
			var cliLog, srvLog []read
			readAll(s, cli, task, &cliLog)
			readAll(s, srv, task, &srvLog)
			s.RunUntil(s.Now().Add(time.Millisecond))
			at := s.Now()
			want, wantErr := at.Add(oneWay(p, 0)), ErrConnClosed
			if reset {
				cli.Abort()
				want, wantErr = at, ErrConnReset
			} else {
				cli.Close()
			}
			s.RunUntil(s.Now().Add(time.Millisecond))
			if got := fmt.Sprint(cliLog); got != fmt.Sprint([]read{{at, "", wantErr}}) {
				t.Errorf("reset=%v: closing end's reader saw %s, want %v at %v", reset, got, wantErr, at)
			}
			if got := fmt.Sprint(srvLog); got != fmt.Sprint([]read{{want, "", wantErr}}) {
				t.Errorf("reset=%v: peer's reader saw %s, want %v at %v", reset, got, wantErr, want)
			}
			s.Shutdown()
		}
	})
}

// A segment and the FIN behind it that land in the same instant give the
// reader the segment, then the close in that instant, and nothing else.
func TestTCPSegmentAndFINInOneInstant(t *testing.T) {
	forms(t, func(t *testing.T, task bool) {
		s, n, p := newNet()
		cli, srv := dialPair(t, s, n)
		var log []read
		readAll(s, srv, task, &log)
		// Every segment pays one retransmission timeout; the FIN does not,
		// so a FIN sent that much later lands with the segment.
		const rto = fault.TCPRetransmit
		n.SetFaults(fault.NewPlan(fault.Config{DropRate: 1}))
		var lands sim.Time
		s.Spawn("sender", func(pr *sim.Proc) {
			lands = pr.Now().Add(rto + oneWay(p, 1))
			if err := cli.Send(pr, []byte("x")); err != nil {
				t.Error(err)
			}
			pr.Sleep(rto + oneWay(p, 1) - oneWay(p, 0))
			cli.Close()
		})
		s.RunUntil(s.Now().Add(rto + time.Millisecond))
		s.Shutdown()
		want := []read{{lands, "x", nil}, {lands, "", ErrConnClosed}}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("reader saw %v, want %v", log, want)
		}
	})
}

// Messages queued before a close or reset are read before its error.
func TestTCPQueuedMessagesPrecedeShutError(t *testing.T) {
	forms(t, func(t *testing.T, task bool) {
		for _, reset := range []bool{false, true} {
			s, n, _ := newNet()
			cli, srv := dialPair(t, s, n)
			s.Spawn("sender", func(p *sim.Proc) {
				cli.Send(p, []byte("a"))
				cli.Send(p, []byte("b"))
				p.Sleep(100 * time.Microsecond)
				if reset {
					cli.Abort()
				} else {
					cli.Close()
				}
			})
			s.RunUntil(s.Now().Add(time.Millisecond))
			var log []read
			readAll(s, srv, task, &log)
			s.RunUntil(s.Now().Add(time.Millisecond))
			s.Shutdown()
			wantErr := ErrConnClosed
			if reset {
				wantErr = ErrConnReset
			}
			if len(log) != 3 || log[0].msg != "a" || log[1].msg != "b" || log[0].err != nil || log[1].err != nil || log[2].err != wantErr {
				t.Errorf("reset=%v: reader saw %v, want a, b, then %v", reset, log, wantErr)
			}
		}
	})
}

func TestTCPAbortReset(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	var errGot error
	s.Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		_, errGot = conn.Recv(p)
	})
	s.Spawn("client", func(p *sim.Proc) {
		conn, _ := client.TCPDial(p, server.Addr(80))
		conn.Abort()
		if err := conn.Send(p, []byte("x")); !errors.Is(err, ErrConnReset) {
			t.Errorf("send on reset conn: %v", err)
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if !errors.Is(errGot, ErrConnReset) {
		t.Fatalf("err = %v, want ErrConnReset", errGot)
	}
}

func TestTCPHandshakeCostsOneRTT(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	server.MustTCPListen(80)
	var dialTime time.Duration
	s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		conn, err := client.TCPDial(p, server.Addr(80))
		if err != nil {
			t.Error(err)
			return
		}
		dialTime = p.Now().Sub(start)
		conn.Close()
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	rtt := n.RTT(0)
	if dialTime < rtt/2 || dialTime > 2*rtt {
		t.Fatalf("handshake %v, want ~RTT %v", dialTime, rtt)
	}
}

// Property: a TCP connection delivers exactly the sent byte sequences, in
// order, for any message sizes.
func TestTCPStreamIntegrityProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 50 {
			sizes = sizes[:50]
		}
		s, n, _ := newNet()
		server := n.AddHost("server")
		client := n.AddHost("client")
		l := server.MustTCPListen(80)
		var sent, rcvd [][]byte
		s.Spawn("server", func(p *sim.Proc) {
			conn := l.Accept(p)
			for range sizes {
				msg, err := conn.Recv(p)
				if err != nil {
					return
				}
				rcvd = append(rcvd, bytes.Clone(msg)) // lent until the next Recv
			}
		})
		s.Spawn("client", func(p *sim.Proc) {
			conn, err := client.TCPDial(p, server.Addr(80))
			if err != nil {
				return
			}
			for i, sz := range sizes {
				msg := make([]byte, int(sz)%2000+1)
				for j := range msg {
					msg[j] = byte(i + j)
				}
				sent = append(sent, msg)
				conn.Send(p, msg)
			}
		})
		s.RunUntil(sim.Time(10 * time.Second))
		s.Shutdown()
		if len(rcvd) != len(sent) {
			return false
		}
		for i := range sent {
			if !bytes.Equal(sent[i], rcvd[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRTTScalesWithSize(t *testing.T) {
	_, n, _ := newNet()
	if n.RTT(1) >= n.RTT(100000) {
		t.Fatal("RTT must grow with payload size")
	}
}

// Messages beyond the MTU fragment: more wire bytes, later arrival.
func TestMTUFragmentation(t *testing.T) {
	s, n, _ := newNet()
	a, b := n.AddHost("a"), n.AddHost("b")
	src := a.MustUDPBind(1)
	dst := b.MustUDPBind(2)
	measure := func(size int) time.Duration {
		var got time.Duration
		done := false
		s.Spawn("m", func(p *sim.Proc) {
			start := p.Now()
			src.SendTo(dst.Addr(), make([]byte, size))
			dst.Recv(p)
			got = p.Now().Sub(start)
			done = true
		})
		s.RunUntilCond(s.Now().Add(time.Second), time.Millisecond, func() bool { return done })
		return got
	}
	small := measure(1400) // 1 fragment
	large := measure(4000) // 3 fragments
	if large <= small {
		t.Fatalf("4000B (%v) must take longer than 1400B (%v)", large, small)
	}
	// 3 fragments -> 3x headers + 3x switch latency beyond pure payload
	// serialization.
	extraSer := time.Duration(float64((4000-1400)*8) / 40e9 * 1e9 * 2)
	if large-small < extraSer {
		t.Fatalf("fragmentation overhead missing: delta %v < payload-only %v", large-small, extraSer)
	}
	if n.RTT(100) >= n.RTT(4000) {
		t.Fatal("RTT must grow with fragmentation")
	}
}

func TestHostLookupAndAccessors(t *testing.T) {
	s, n, _ := newNet()
	h := n.AddHost("alpha")
	if h.Name() != "alpha" {
		t.Fatalf("name %q", h.Name())
	}
	if got, ok := n.Host("alpha"); !ok || got != h {
		t.Fatal("lookup failed")
	}
	if _, ok := n.Host("ghost"); ok {
		t.Fatal("ghost host found")
	}
	sock := h.MustUDPBind(9)
	if sock.Pending() != 0 {
		t.Fatal("fresh socket has pending datagrams")
	}
	sock.Close()
	if _, err := h.UDPBind(9); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	_ = s
}

func TestUDPRecvTimeout(t *testing.T) {
	s, n, _ := newNet()
	h := n.AddHost("a")
	sock := h.MustUDPBind(1)
	var ok bool
	s.Spawn("x", func(p *sim.Proc) {
		_, ok, _ = sock.RecvTimeout(p, 20*time.Microsecond)
	})
	s.Run()
	if ok {
		t.Fatal("timeout expected")
	}
}

func TestTCPListenerCloseAndConnAccessors(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	s.Spawn("srv", func(p *sim.Proc) {
		conn := l.Accept(p)
		if conn.LocalAddr() != server.Addr(80) {
			t.Errorf("server local %v", conn.LocalAddr())
		}
		// RecvTimeout: nothing arrives.
		if _, ok, err := conn.RecvTimeout(p, 10*time.Microsecond); ok || err != nil {
			t.Errorf("recvtimeout ok=%v err=%v", ok, err)
		}
	})
	s.Spawn("cli", func(p *sim.Proc) {
		conn, err := client.TCPDial(p, server.Addr(80))
		if err != nil {
			t.Error(err)
			return
		}
		if conn.Reset() {
			t.Error("fresh conn reset")
		}
		conn.Abort()
		if !conn.Reset() {
			t.Error("abort not visible")
		}
		if _, _, err := conn.RecvTimeout(p, time.Microsecond); err == nil {
			t.Error("recv on reset conn must error")
		}
		l.Close()
		if _, err := client.TCPDial(p, server.Addr(80)); err == nil {
			t.Error("dial after listener close must fail")
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
}

func TestTCPDoubleCloseIsIdempotent(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	s.Spawn("srv", func(p *sim.Proc) { l.Accept(p) })
	s.Spawn("cli", func(p *sim.Proc) {
		conn, _ := client.TCPDial(p, server.Addr(80))
		conn.Close()
		conn.Close() // no-op
		if err := conn.Send(p, []byte("x")); err == nil {
			t.Error("send after close must fail")
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
}
