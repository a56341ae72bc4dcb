package netstack

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"lynx/internal/sim"
)

// serveOutcome is everything one run of a served scenario exposes.
type serveOutcome struct {
	// trace holds, for every instant at which events ran, the number of
	// events executed by its end.
	trace []string
	// replies are what the clients received, and when.
	replies  []string
	executed uint64
	// live counts the processes still running at the end: a connection's
	// process that outlives its connection shows here.
	live int
}

// stepServe runs s to until one nanosecond at a time, so the outcome sees
// the instant of every event, and records the totals.
func stepServe(s *sim.Sim, until time.Duration, o *serveOutcome) {
	var last uint64
	for at := sim.Time(0); at <= sim.Time(until); at++ {
		s.RunUntil(at)
		if n := s.Executed(); n != last {
			o.trace = append(o.trace, fmt.Sprintf("%v:%d", at, n))
			last = n
		}
	}
	o.executed, o.live = s.Executed(), s.Live()
	s.Shutdown()
}

// charge is both scenarios' per-request cost: a sleep that grows with the
// request.
func charge(p *sim.Proc, msg []byte) { p.Sleep(time.Duration(2+len(msg)) * time.Microsecond) }

// runUDPServe serves a fixed client schedule on two workers, either through
// UDPSocket.Serve or through the straight-line loop it replaced. Worker 0
// serves "alpha" then "dddddddd"; worker 1 drops "b", then serves "ccc"
// and "ee". Each reply names its worker.
func runUDPServe(helper bool) serveOutcome {
	s, n, _ := newNet()
	server, client := n.AddHost("server"), n.AddHost("client")
	sock := server.MustUDPBind(7000)
	reply := func(out []byte, w int, msg []byte) []byte {
		return append(append(out, msg...), byte('0'+w), '!')
	}
	if helper {
		sock.Serve("srv", 2, func(p *sim.Proc, w int, _ Addr, msg, out []byte) []byte {
			charge(p, msg)
			if len(msg) < 2 {
				return nil // dropped
			}
			return reply(out, w, msg)
		})
	} else {
		for w := 0; w < 2; w++ {
			s.Spawn(fmt.Sprintf("srv/%d", w), func(p *sim.Proc) {
				var out []byte
				for {
					dg := sock.Recv(p)
					charge(p, dg.Payload)
					if len(dg.Payload) < 2 {
						continue
					}
					out = reply(out[:0], w, dg.Payload)
					sock.SendTo(dg.From, out)
				}
			})
		}
	}
	var o serveOutcome
	cli := client.MustUDPBind(9000)
	s.Spawn("client", func(p *sim.Proc) {
		for _, m := range []string{"alpha", "b", "ccc", "dddddddd"} {
			cli.SendTo(sock.Addr(), []byte(m))
		}
		p.Sleep(3 * time.Microsecond)
		cli.SendTo(sock.Addr(), []byte("ee"))
		for {
			dg, ok, _ := cli.RecvTimeout(p, 50*time.Microsecond)
			if !ok {
				return
			}
			o.replies = append(o.replies, fmt.Sprintf("%v %q", p.Now(), dg.Payload))
		}
	})
	stepServe(s, 100*time.Microsecond, &o)
	return o
}

// runTCPServe serves two connections, either through TCPListener.Serve or
// through the straight-line accept and connection loops it replaced.
// Connection a sends "a1", waits for the reply, sends "a22", waits again
// and closes: its process ends on the failed receive.
// Connection b sends "b1" and closes at once: the close lands while the
// server is still serving "b1", so its process ends on the failed send.
func runTCPServe(t *testing.T, helper bool) serveOutcome {
	s, n, _ := newNet()
	server, client := n.AddHost("server"), n.AddHost("client")
	l := server.MustTCPListen(80)
	reply := func(out, msg []byte) []byte { return append(append(out, msg...), '!') }
	if helper {
		l.Serve("srv", func(p *sim.Proc, msg, out []byte) []byte {
			charge(p, msg)
			return reply(out, msg)
		})
	} else {
		s.Spawn("srv", func(p *sim.Proc) {
			for {
				conn := l.Accept(p)
				s.Spawn("srv/conn", func(p *sim.Proc) {
					var out []byte
					for {
						msg, err := conn.Recv(p)
						if err != nil {
							return
						}
						charge(p, msg)
						out = reply(out[:0], msg)
						if conn.Send(p, out) != nil {
							return
						}
					}
				})
			}
		})
	}
	var o serveOutcome
	dial := func(p *sim.Proc) *TCPConn {
		conn, err := client.TCPDial(p, server.Addr(80))
		if err != nil {
			t.Error(err)
		}
		return conn
	}
	recv := func(p *sim.Proc, conn *TCPConn, name string) {
		msg, err := conn.Recv(p)
		o.replies = append(o.replies, fmt.Sprintf("%v %s %q %v", p.Now(), name, msg, err))
	}
	s.Spawn("client-a", func(p *sim.Proc) {
		conn := dial(p)
		conn.Send(p, []byte("a1"))
		recv(p, conn, "a")
		conn.Send(p, []byte("a22"))
		recv(p, conn, "a")
		conn.Close()
	})
	s.Spawn("client-b", func(p *sim.Proc) {
		conn := dial(p)
		conn.Send(p, []byte("b1"))
		conn.Close()
	})
	stepServe(s, 100*time.Microsecond, &o)
	return o
}

// TestServeMatchesStraightLineLoops holds UDPSocket.Serve and
// TCPListener.Serve to the hand-written loops they replaced: the same
// replies at the same instants, the same number of events at every
// instant, the same total, and the same processes left running.
func TestServeMatchesStraightLineLoops(t *testing.T) {
	check := func(t *testing.T, ref, got serveOutcome, wantReplies int) {
		t.Helper()
		if len(ref.replies) != wantReplies {
			t.Fatalf("the reference got %d replies, want %d: %q", len(ref.replies), wantReplies, ref.replies)
		}
		if !reflect.DeepEqual(got.replies, ref.replies) {
			t.Errorf("replies %q, the reference %q", got.replies, ref.replies)
		}
		if !reflect.DeepEqual(got.trace, ref.trace) {
			t.Errorf("event instants differ from the reference:\n got %q\n ref %q", got.trace, ref.trace)
		}
		if got.executed != ref.executed || got.live != ref.live {
			t.Errorf("executed %d with %d live, the reference %d with %d live",
				got.executed, got.live, ref.executed, ref.live)
		}
	}
	t.Run("udp", func(t *testing.T) {
		check(t, runUDPServe(false), runUDPServe(true), 4)
	})
	t.Run("tcp", func(t *testing.T) {
		check(t, runTCPServe(t, false), runTCPServe(t, true), 2)
	})
}
