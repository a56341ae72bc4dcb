package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// Client timing. The timeout is far above every workload's tail latency, so
// a retransmission means a lost or discarded request, never a slow one.
const (
	clientTimeout = 100 * time.Millisecond
	clientRetries = 2
	// drainLimit bounds how long the clients may take to resolve the requests
	// they sent in the window: the full retransmission budget.
	drainLimit = clientTimeout * (1<<(clientRetries+1) - 1)
	// thinkMax bounds the seeded think time a client waits before each
	// request. Without it a closed loop against deterministic service times
	// settles into a fixed rhythm whose latencies do not depend on the seed.
	thinkMax = 2 * time.Microsecond
)

// client is one closed-loop load generator: a simulator process that sends
// a request, waits for the answer, validates it, and sends the next.
type client struct {
	host   *netstack.Host
	target netstack.Addr
	port   uint16 // UDP source port
	tcp    bool
	spans  *trace.SpanTable
	rng    *rand.Rand
	gen    traffic
}

func newClient(i int, seed uint64, host *netstack.Host, target netstack.Addr, tcp bool, spans *trace.SpanTable, gen traffic) *client {
	return &client{
		host: host, target: target, port: uint16(20000 + i), tcp: tcp, spans: spans,
		rng: rand.New(rand.NewPCG(seed, uint64(i))), gen: gen,
	}
}

// ledger accounts for one bed's clients over the measured window
// [start, end) of virtual time. A request belongs to the window it was sent
// in and is followed to its end after the window closes, so every measured
// request is either answered correctly or counted as failed.
type ledger struct {
	start, end sim.Time
	seq        uint64 // last sequence number issued; unique per bed
	warmOps    uint64 // requests sent before the window
	ops        uint64 // requests sent in the window
	failed     uint64 // of ops: timed out after retries, or answered wrongly
	wrong      uint64 // of failed: answered wrongly
	retries    uint64 // retransmissions of ops
	answered   uint64 // correct answers received, whenever sent
	lat        []time.Duration
	running    int   // client processes still sending
	err        error // first client set-up failure
}

// startClients spawns every client process of the bed.
func (b *bed) startClients(l *ledger) error {
	for i, c := range b.clients {
		var sock *netstack.UDPSocket
		if !c.tcp {
			var err error
			if sock, err = c.host.UDPBind(c.port); err != nil {
				return fmt.Errorf("client %d: %w", i, err)
			}
		}
		l.running++
		b.sim.Spawn(fmt.Sprintf("bench/client%d", i), func(p *sim.Proc) { c.run(p, sock, l) })
	}
	return nil
}

func (c *client) run(p *sim.Proc, sock *netstack.UDPSocket, l *ledger) {
	defer func() { l.running-- }()
	var conn *netstack.TCPConn
	if c.tcp {
		var err error
		if conn, err = c.host.TCPDial(p, c.target); err != nil {
			if l.err == nil {
				l.err = err
			}
			return
		}
	}
	for {
		p.Sleep(time.Duration(c.rng.Int64N(int64(thinkMax))))
		sent := p.Now()
		if sent >= l.end {
			return
		}
		l.seq++
		seq := l.seq
		measured := sent >= l.start
		req := c.gen.next(c.rng, seq, measured)
		if measured {
			l.ops++
			c.spans.Begin(seq, sent)
		} else {
			l.warmOps++
		}
		var resp []byte
		var enq sim.Time
		if c.tcp {
			resp, enq = c.tcpRoundTrip(p, conn, seq, req)
		} else {
			resp, enq = c.udpRoundTrip(p, sock, seq, req, measured, l)
		}
		ok := c.gen.valid(resp)
		if ok {
			l.answered++
		}
		if !measured {
			continue
		}
		now := p.Now()
		if !ok {
			l.failed++
			if resp != nil {
				l.wrong++
			}
			c.spans.Close(seq, trace.SpanLost, now)
			continue
		}
		if enq > 0 {
			c.spans.AddWait(seq, trace.PhaseNetwork, now.Sub(enq))
		}
		c.spans.Close(seq, trace.SpanDone, now)
		l.lat = append(l.lat, now.Sub(sent))
	}
}

// udpRoundTrip sends req and returns the answer carrying its sequence
// number, retransmitting with doubled patience after each timeout. It
// returns nil once the retries are spent.
func (c *client) udpRoundTrip(p *sim.Proc, sock *netstack.UDPSocket, seq uint64, req []byte, measured bool, l *ledger) ([]byte, sim.Time) {
	sock.SendTo(c.target, req)
	timeout := clientTimeout
	for attempt := 0; ; {
		dg, ok, _ := sock.RecvTimeout(p, timeout)
		if ok {
			if trace.SpanID(dg.Payload) != seq {
				continue // a late answer to an earlier retransmission
			}
			return dg.Payload, dg.EnqueuedAt
		}
		if attempt == clientRetries {
			return nil, 0
		}
		attempt++
		if measured {
			l.retries++
		}
		sock.SendTo(c.target, req)
		timeout *= 2
	}
}

// tcpRoundTrip sends req over the connection and returns the answer carrying
// its sequence number, or nil if none arrives within the timeout.
func (c *client) tcpRoundTrip(p *sim.Proc, conn *netstack.TCPConn, seq uint64, req []byte) ([]byte, sim.Time) {
	if conn.Send(p, req) != nil {
		return nil, 0
	}
	deadline := p.Now().Add(clientTimeout)
	for {
		left := deadline.Sub(p.Now())
		if left <= 0 {
			return nil, 0
		}
		msg, enq, ok, err := conn.RecvQueuedTimeout(p, left)
		if err != nil || !ok {
			return nil, 0
		}
		if trace.SpanID(msg) == seq {
			return msg, enq
		}
	}
}
