// Package netstack models the client-facing Ethernet/IP network of the
// testbed: hosts attached to a single switch (Mellanox SN2100 in the paper)
// via full-duplex links, carrying UDP datagrams and TCP message streams.
//
// The package moves bytes with wire-accurate timing (per-link serialization
// with contention, propagation, switch latency) and leaves *CPU* protocol
// processing costs to the caller: the cost of the UDP/TCP stack depends on
// which core runs it (Xeon vs. ARM, kernel vs. VMA bypass, §5.1.1), so the
// compute platform charges model.Params.UDPCost/TCPCost where the packet is
// actually processed.
package netstack

import (
	"errors"
	"fmt"
	"time"

	"lynx/internal/check"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/sim"
)

// Addr identifies a transport endpoint.
type Addr struct {
	Host string
	Port uint16
}

// String formats the address host:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// Datagram is one received UDP message.
type Datagram struct {
	From    Addr
	To      Addr
	Payload []byte
	// EnqueuedAt is the virtual time the datagram entered the destination
	// socket's receive queue (zero on locally-constructed datagrams). The
	// consumer's receive time minus this is the rx-ring residency, the
	// network-phase queue wait of the attribution profile.
	EnqueuedAt sim.Time
}

const (
	udpOverhead = 42 // Ethernet + IP + UDP headers
	tcpOverhead = 54 // Ethernet + IP + TCP headers
	// MTU is the Ethernet payload limit; larger messages fragment (UDP/IP
	// fragmentation, TCP segmentation) and pay per-fragment header and
	// switch costs.
	MTU = 1500
	// DefaultRxQueue is the socket receive queue depth; UDP datagrams
	// arriving at a full queue are dropped, like a real NIC ring.
	DefaultRxQueue = 4096
)

// wireSize returns the total on-wire bytes for a payload incl. per-fragment
// headers, and the fragment count.
func wireSize(payload, overhead int) (bytes, frags int) {
	if payload <= 0 {
		return overhead, 1
	}
	frags = (payload + MTU - 1) / MTU
	return payload + frags*overhead, frags
}

// Network is a single-switch topology.
type Network struct {
	sim       *sim.Sim
	params    *model.Params
	hosts     map[string]*Host
	ephemeral uint16
	faults    *fault.Plan

	// check and the udp* ledgers implement datagram conservation: every
	// datagram launched is eventually delivered, dropped at a full receive
	// queue, unreachable, or still in flight at shutdown — never duplicated
	// beyond the fault plan's say-so. Maintained only while a checker is
	// installed.
	check          *check.Checker
	udpSent        uint64
	udpDuplicated  uint64
	udpWireDropped uint64
	udpDelivered   uint64
	udpRxqDropped  uint64
	udpUnreachable uint64

	flights []*flight // free list of UDP wire records
}

// New creates an empty network using the wire constants in params.
func New(s *sim.Sim, p *model.Params) *Network {
	return &Network{sim: s, params: p, hosts: make(map[string]*Host), ephemeral: 32768}
}

// SetFaults installs a fault plan consulted per datagram/segment. A nil plan
// (the default) injects nothing.
func (n *Network) SetFaults(pl *fault.Plan) { n.faults = pl }

// Faults returns the installed fault plan (possibly nil).
func (n *Network) Faults() *fault.Plan { return n.faults }

// RegisterInvariants installs ck and registers the network's end-of-run
// check: every datagram launched since installation is accounted for as
// delivered, dropped (wire or receive queue), unreachable, or still in
// flight at shutdown (a non-negative remainder).
func (n *Network) RegisterInvariants(ck *check.Checker) {
	if !ck.Enabled() {
		return
	}
	n.check = ck
	ck.AddFinisher("netstack.datagram-conservation", func(fail func(string, ...any)) {
		launched := n.udpSent + n.udpDuplicated - n.udpWireDropped
		accounted := n.udpDelivered + n.udpRxqDropped + n.udpUnreachable
		if accounted > launched {
			fail("accounted %d datagrams (delivered %d, rxq-dropped %d, unreachable %d) exceed launched %d (sent %d, dup %d, wire-dropped %d)",
				accounted, n.udpDelivered, n.udpRxqDropped, n.udpUnreachable,
				launched, n.udpSent, n.udpDuplicated, n.udpWireDropped)
		}
	})
}

// link is a simplex link modelled with a next-free-time token.
type link struct {
	bandwidth float64
	freeAt    sim.Time
	busy      time.Duration
}

// reserve books the serialization of size bytes, returning the completion
// time of the last bit on this link.
func (l *link) reserve(now sim.Time, size int) sim.Time {
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	ser := model.TransferTime(size, l.bandwidth)
	l.busy += ser
	l.freeAt = start.Add(ser)
	return l.freeAt
}

// Host is a machine (or a multi-homed SmartNIC, §2) on the network.
type Host struct {
	net  *Network
	name string
	up   link
	down link

	udp       map[uint16]*UDPSocket
	listeners map[uint16]*TCPListener

	dropped uint64
}

// AddHost attaches a new host to the switch.
func (n *Network) AddHost(name string) *Host {
	if _, dup := n.hosts[name]; dup {
		panic(fmt.Sprintf("netstack: duplicate host %q", name))
	}
	h := &Host{
		net:       n,
		name:      name,
		up:        link{bandwidth: n.params.WireBandwidth},
		down:      link{bandwidth: n.params.WireBandwidth},
		udp:       make(map[uint16]*UDPSocket),
		listeners: make(map[uint16]*TCPListener),
	}
	n.hosts[name] = h
	return h
}

// Host looks up a host by name.
func (n *Network) Host(name string) (*Host, bool) {
	h, ok := n.hosts[name]
	return h, ok
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Addr returns this host's address for the given port.
func (h *Host) Addr(port uint16) Addr { return Addr{Host: h.name, Port: port} }

// Dropped reports datagrams discarded at full receive queues.
func (h *Host) Dropped() uint64 { return h.dropped }

// WireBusy reports the accumulated serialization time booked on this host's
// uplink and downlink. Deltas over a sampling interval divided by twice the
// interval give the NIC-wire utilization the monitor publishes.
func (h *Host) WireBusy() time.Duration { return h.up.busy + h.down.busy }

// RTT returns the uncontended round-trip wire time for a payload of the
// given size between two hosts (used to calibrate handshakes and tests).
func (n *Network) RTT(size int) time.Duration {
	bytes, frags := wireSize(size, udpOverhead)
	ser := model.TransferTime(bytes, n.params.WireBandwidth)
	oneWay := 2*ser + 2*n.params.WirePropagation + time.Duration(frags)*n.params.SwitchLatency
	return 2 * oneWay
}

// transmit schedules delivery of one message of the given payload size from
// src to dst, contending on src's uplink and dst's downlink. Payloads beyond
// the MTU fragment: every fragment pays headers and switch processing, and
// the message arrives when its last fragment does.
func (n *Network) transmit(src, dst *Host, payload, overhead int, deliver func()) {
	n.transmitDelayed(src, dst, payload, overhead, 0, deliver)
}

// transmitDelayed is transmit with an injected in-network delay (fault plan):
// the message serializes normally but arrives extra later, as if queued
// behind cross-traffic inside the switch.
func (n *Network) transmitDelayed(src, dst *Host, payload, overhead int, extra time.Duration, deliver func()) {
	bytes, frags := wireSize(payload, overhead)
	now := n.sim.Now()
	upDone := src.up.reserve(now, bytes)
	atSwitch := upDone.Add(n.params.WirePropagation + time.Duration(frags)*n.params.SwitchLatency)
	downDone := dst.down.reserve(atSwitch, bytes)
	arrival := downDone.Add(n.params.WirePropagation + extra)
	n.sim.At(arrival, deliver)
}

// ---------------------------------------------------------------------------
// UDP

// UDPSocket is a bound UDP endpoint.
type UDPSocket struct {
	host *Host
	port uint16
	rxq  *sim.Chan[Datagram]
}

// ErrPortInUse reports a bind conflict.
var ErrPortInUse = errors.New("netstack: port in use")

// UDPBind binds a UDP socket on the host.
func (h *Host) UDPBind(port uint16) (*UDPSocket, error) {
	if _, dup := h.udp[port]; dup {
		return nil, fmt.Errorf("%w: udp %s:%d", ErrPortInUse, h.name, port)
	}
	s := &UDPSocket{host: h, port: port, rxq: sim.NewChan[Datagram](h.net.sim, DefaultRxQueue)}
	h.udp[port] = s
	return s, nil
}

// MustUDPBind binds or panics (initialization convenience).
func (h *Host) MustUDPBind(port uint16) *UDPSocket {
	s, err := h.UDPBind(port)
	if err != nil {
		panic(err)
	}
	return s
}

// Addr returns the socket's bound address.
func (s *UDPSocket) Addr() Addr { return s.host.Addr(s.port) }

// SendTo transmits payload to the destination address. Unknown destinations
// are silently dropped (as on a real network). The payload is copied. The
// network's fault plan, if any, may drop, duplicate or delay the datagram.
func (s *UDPSocket) SendTo(to Addr, payload []byte) {
	n := s.host.net
	checked := n.check.Enabled()
	dst, ok := n.hosts[to.Host]
	if !ok {
		return
	}
	if checked {
		n.udpSent++
	}
	fate, extra := n.faults.Datagram()
	if fate == fault.Drop {
		if checked {
			n.udpWireDropped++
		}
		return // lost on the wire
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	dg := Datagram{From: s.Addr(), To: to, Payload: buf}
	n.transmitDelayed(s.host, dst, len(payload), udpOverhead, extra, n.flight(dst, dg, checked))
	if fate == fault.Duplicate {
		if checked {
			n.udpDuplicated++
		}
		// The copy serializes behind the original on the same links.
		n.transmitDelayed(s.host, dst, len(payload), udpOverhead, extra, n.flight(dst, dg, checked))
	}
}

// flight is one datagram on the wire. Records recycle through
// Network.flights and arrive is bound once, so a send allocates only its
// payload copy, which the receiver keeps.
type flight struct {
	n       *Network
	dst     *Host
	dg      Datagram
	checked bool
	arrive  func() // pre-bound f.land
}

// flight takes a wire record for dg bound for dst and returns its arrival
// thunk.
func (n *Network) flight(dst *Host, dg Datagram, checked bool) func() {
	var f *flight
	if k := len(n.flights); k > 0 {
		f = n.flights[k-1]
		n.flights[k-1] = nil
		n.flights = n.flights[:k-1]
	} else {
		f = &flight{n: n}
		f.arrive = f.land
	}
	f.dst, f.dg, f.checked = dst, dg, checked
	return f.arrive
}

// land delivers the datagram into its destination socket's receive queue,
// stamping the arrival, and recycles the record.
func (f *flight) land() {
	n, dst, dg, checked := f.n, f.dst, f.dg, f.checked
	f.dst, f.dg = nil, Datagram{}
	n.flights = append(n.flights, f)
	sock, ok := dst.udp[dg.To.Port]
	if !ok {
		if checked {
			n.udpUnreachable++
		}
		return // port unreachable
	}
	dg.EnqueuedAt = n.sim.Now()
	if !sock.rxq.TryPut(dg) {
		dst.dropped++
		if checked {
			n.udpRxqDropped++
		}
	} else if checked {
		n.udpDelivered++
	}
}

// Recv blocks until a datagram arrives.
func (s *UDPSocket) Recv(p *sim.Proc) Datagram { return s.rxq.Get(p) }

// RecvTimeout blocks up to d for a datagram, following the package-wide
// (value, ok, err) timeout-receive idiom: ok is false on timeout, and err is
// reserved for socket-level failures (always nil for UDP today — a timed-out
// or successful receive never sets it).
func (s *UDPSocket) RecvTimeout(p *sim.Proc, d time.Duration) (Datagram, bool, error) {
	dg, ok := s.rxq.GetTimeout(p, d)
	return dg, ok, nil
}

// RecvBatch receives up to len(buf) datagrams: it blocks for the first, then
// drains whatever is already queued without blocking. Returns the count
// stored (at least 1 for a non-empty buf). This is the dispatcher's batched
// dequeue path: one wakeup per burst instead of one per packet.
func (s *UDPSocket) RecvBatch(p *sim.Proc, buf []Datagram) int {
	return s.rxq.GetBatch(p, buf)
}

// RecvT is Recv for tasks: reports (dg, true) when a datagram was already
// queued (continuation NOT called — caller continues inline), else parks the
// task and fn runs when one arrives.
func (s *UDPSocket) RecvT(t *sim.Task, fn func(Datagram)) (Datagram, bool) {
	return s.rxq.GetT(t, fn)
}

// RecvBatchT is RecvBatch for tasks, with the same inline-return convention
// as RecvT: (n, true) means n datagrams were stored inline.
func (s *UDPSocket) RecvBatchT(t *sim.Task, buf []Datagram, fn func(int)) (int, bool) {
	return s.rxq.GetBatchT(t, buf, fn)
}

// TryRecv polls for a datagram without blocking.
func (s *UDPSocket) TryRecv() (Datagram, bool) { return s.rxq.TryGet() }

// Pending reports queued datagrams.
func (s *UDPSocket) Pending() int { return s.rxq.Len() }

// Close unbinds the socket.
func (s *UDPSocket) Close() { delete(s.host.udp, s.port) }

// ---------------------------------------------------------------------------
// TCP

// TCPListener accepts incoming connections on a port.
type TCPListener struct {
	host    *Host
	port    uint16
	backlog *sim.Chan[*TCPConn]
}

// TCPConn is one side of an established connection carrying framed messages
// in order (the simulation does not re-segment: each Send is one app-level
// message, the unit every experiment in the paper operates on).
type TCPConn struct {
	net        *Network
	local      Addr
	remote     Addr
	localHost  *Host
	remoteHost *Host
	rxq        *sim.Chan[tcpMsg]
	peer       *TCPConn
	closed     bool
	reset      bool
}

// tcpMsg is one framed message with its receive-queue entry time, so TCP
// receivers can attribute queue residency like UDP's Datagram.EnqueuedAt.
type tcpMsg struct {
	b   []byte
	enq sim.Time
}

// ErrConnClosed is returned by Recv after the peer closes.
var ErrConnClosed = errors.New("netstack: connection closed")

// ErrConnReset is returned after an abortive close (failure injection).
var ErrConnReset = errors.New("netstack: connection reset")

// TCPListen opens a listener.
func (h *Host) TCPListen(port uint16) (*TCPListener, error) {
	if _, dup := h.listeners[port]; dup {
		return nil, fmt.Errorf("%w: tcp %s:%d", ErrPortInUse, h.name, port)
	}
	l := &TCPListener{host: h, port: port, backlog: sim.NewChan[*TCPConn](h.net.sim, 0)}
	h.listeners[port] = l
	return l, nil
}

// MustTCPListen listens or panics.
func (h *Host) MustTCPListen(port uint16) *TCPListener {
	l, err := h.TCPListen(port)
	if err != nil {
		panic(err)
	}
	return l
}

// Accept blocks until a connection is established and returns its server
// side.
func (l *TCPListener) Accept(p *sim.Proc) *TCPConn { return l.backlog.Get(p) }

// Close stops listening.
func (l *TCPListener) Close() { delete(l.host.listeners, l.port) }

// TCPDial establishes a connection to addr, blocking for the handshake
// (SYN + SYN-ACK round trip).
func (h *Host) TCPDial(p *sim.Proc, to Addr) (*TCPConn, error) {
	dst, ok := h.net.hosts[to.Host]
	if !ok {
		return nil, fmt.Errorf("netstack: no route to host %q", to.Host)
	}
	l, ok := dst.listeners[to.Port]
	if !ok {
		return nil, fmt.Errorf("netstack: connection refused: %v", to)
	}
	h.net.ephemeral++
	local := Addr{Host: h.name, Port: h.net.ephemeral}

	client := &TCPConn{net: h.net, local: local, remote: to, localHost: h, remoteHost: dst,
		rxq: sim.NewChan[tcpMsg](h.net.sim, 0)}
	server := &TCPConn{net: h.net, local: to, remote: local, localHost: dst, remoteHost: h,
		rxq: sim.NewChan[tcpMsg](h.net.sim, 0)}
	client.peer, server.peer = server, client

	established := sim.NewChan[struct{}](h.net.sim, 0)
	// SYN out...
	h.net.transmit(h, dst, 0, tcpOverhead, func() {
		// ...SYN-ACK back.
		h.net.transmit(dst, h, 0, tcpOverhead, func() {
			established.TryPut(struct{}{})
		})
		l.backlog.TryPut(server)
	})
	established.Get(p)
	return client, nil
}

// LocalAddr returns this side's address.
func (c *TCPConn) LocalAddr() Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *TCPConn) RemoteAddr() Addr { return c.remote }

// Send transmits one framed message to the peer. Each message also costs an
// ACK in the reverse direction, which is what makes TCP dearer on the wire
// as well as on the CPU. Under a fault plan, a "lost" segment manifests as
// retransmission delay — the reliable transport masks the loss, as real TCP
// does.
func (c *TCPConn) Send(p *sim.Proc, msg []byte) error {
	if c.closed {
		return ErrConnClosed
	}
	if c.reset {
		return ErrConnReset
	}
	buf := make([]byte, len(msg))
	copy(buf, msg)
	peer := c.peer
	c.net.transmitDelayed(c.localHost, c.remoteHost, len(msg), tcpOverhead, c.net.faults.TCPDelay(), func() {
		if peer.closed || peer.reset {
			return
		}
		// unbounded: flow control not modelled
		peer.rxq.TryPut(tcpMsg{b: buf, enq: c.net.sim.Now()})
		// Delayed ACK traffic back (fire and forget).
		c.net.transmit(c.remoteHost, c.localHost, 0, tcpOverhead, func() {})
	})
	return nil
}

// Recv blocks for the next message from the peer.
func (c *TCPConn) Recv(p *sim.Proc) ([]byte, error) {
	msg, _, err := c.RecvQueued(p)
	return msg, err
}

// RecvQueued is Recv returning also the virtual time the message entered the
// receive queue, for queue-wait attribution.
func (c *TCPConn) RecvQueued(p *sim.Proc) ([]byte, sim.Time, error) {
	for {
		if msg, ok := c.rxq.TryGet(); ok {
			return msg.b, msg.enq, nil
		}
		if c.reset {
			return nil, 0, ErrConnReset
		}
		if c.closed {
			return nil, 0, ErrConnClosed
		}
		msg, ok := c.rxq.GetTimeout(p, 100*time.Microsecond)
		if ok {
			return msg.b, msg.enq, nil
		}
	}
}

// RecvTimeout blocks up to d for the next message.
func (c *TCPConn) RecvTimeout(p *sim.Proc, d time.Duration) ([]byte, bool, error) {
	msg, _, ok, err := c.RecvQueuedTimeout(p, d)
	return msg, ok, err
}

// RecvQueuedTimeout is RecvTimeout returning also the receive-queue entry
// time of the message.
func (c *TCPConn) RecvQueuedTimeout(p *sim.Proc, d time.Duration) ([]byte, sim.Time, bool, error) {
	if msg, ok := c.rxq.TryGet(); ok {
		return msg.b, msg.enq, true, nil
	}
	if c.reset {
		return nil, 0, false, ErrConnReset
	}
	if c.closed {
		return nil, 0, false, ErrConnClosed
	}
	msg, ok := c.rxq.GetTimeout(p, d)
	if !ok {
		return nil, 0, false, nil
	}
	return msg.b, msg.enq, true, nil
}

// Close shuts the connection down gracefully on both ends (FIN exchange is
// abstracted to a one-way notification delay).
func (c *TCPConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	peer := c.peer
	c.net.transmit(c.localHost, c.remoteHost, 0, tcpOverhead, func() {
		peer.closed = true
	})
}

// Abort resets the connection immediately on both ends (failure injection:
// the SNIC reports such errors to accelerators through the mqueue metadata
// error status, §5.1).
func (c *TCPConn) Abort() {
	c.reset = true
	c.peer.reset = true
}

// Reset reports whether the connection was aborted.
func (c *TCPConn) Reset() bool { return c.reset }
