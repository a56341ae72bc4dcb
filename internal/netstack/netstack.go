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
	"math/bits"
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

// Datagram is one received UDP message. Payload is the network's copy of the
// sent bytes, lent to the receiving process until its next receive on the
// same socket (see UDPSocket).
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

	flights []*flight  // free list of UDP wire records
	segs    []*segment // free list of TCP wire records
	// bufs is the free list of payload copies, one stack per power-of-two
	// size class: class c holds buffers of capacity at least 1<<c. Sends take
	// their copy from it; a receiver's next receive and undeliverable
	// messages refill it, so it is bounded by the messages in flight and the
	// payloads lent to receivers.
	bufs [][][]byte
}

// poison fills a released buffer while checks are armed, so a use past the
// end of a payload's lease reads bytes no sender wrote.
const poison = 0xDB

// copyOf returns a copy of payload in a buffer from the free list of its
// size class, allocating only when that list is empty.
func (n *Network) copyOf(payload []byte) []byte {
	if len(payload) == 0 {
		return []byte{}
	}
	c := bits.Len(uint(len(payload) - 1))
	if c < len(n.bufs) {
		if free := n.bufs[c]; len(free) > 0 {
			b := free[len(free)-1]
			free[len(free)-1] = nil
			n.bufs[c] = free[:len(free)-1]
			return append(b, payload...)
		}
	}
	return append(make([]byte, 0, 1<<c), payload...)
}

// release returns a message buffer to the free list of the largest size
// class its capacity covers.
func (n *Network) release(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if n.check.Enabled() {
		for i := range b {
			b[i] = poison
		}
	}
	c := bits.Len(uint(cap(b))) - 1
	for len(n.bufs) <= c {
		n.bufs = append(n.bufs, nil)
	}
	n.bufs[c] = append(n.bufs[c], b[:0])
}

// New creates an empty network using the wire constants in params.
func New(s *sim.Sim, p *model.Params) *Network {
	return &Network{sim: s, params: p, hosts: make(map[string]*Host), ephemeral: 32768}
}

// SetFaults installs a fault plan consulted per datagram/segment. A nil plan
// (the default) injects nothing.
func (n *Network) SetFaults(pl *fault.Plan) { n.faults = pl }

// RegisterInvariants installs ck and registers the network's end-of-run
// check: every datagram launched since installation is accounted for as
// delivered, dropped (wire or receive queue), unreachable, or still in
// flight at shutdown (a non-negative remainder). While ck is installed, every
// buffer returned to the free list is poisoned, so a receiver that reads a
// payload after its lease ended reads garbage.
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
// the message arrives when its last fragment does. A nil deliver only books
// the links: the message occupies the wire, and its arrival schedules no
// event (a TCP ACK, which nothing waits for).
func (n *Network) transmit(src, dst *Host, payload, overhead int, deliver func()) {
	n.transmitDelayed(src, dst, payload, overhead, 0, deliver)
}

// transmitDelayed is transmit with an injected delay (the fault plan's TCP
// retransmission): the message serializes normally but arrives extra later.
func (n *Network) transmitDelayed(src, dst *Host, payload, overhead int, extra time.Duration, deliver func()) {
	bytes, frags := wireSize(payload, overhead)
	now := n.sim.Now()
	upDone := src.up.reserve(now, bytes)
	atSwitch := upDone.Add(n.params.WirePropagation + time.Duration(frags)*n.params.SwitchLatency)
	downDone := dst.down.reserve(atSwitch, bytes)
	if deliver != nil {
		n.sim.At(downDone.Add(n.params.WirePropagation+extra), deliver)
	}
}

// ---------------------------------------------------------------------------
// UDP

// UDPSocket is a bound UDP endpoint. A received payload is lent to the
// process that received it: it stays valid until that process's next
// receive on the socket, which returns it to the network's free list before
// anything else. Several processes may drain one socket, each holding the
// payloads of its own last receive, so a receiver that keeps a payload
// longer, or hands it to another process, copies it.
type UDPSocket struct {
	host *Host
	port uint16
	rxq  *sim.Chan[Datagram]
	// lent is the first receiving process's lease, more those of any
	// others: a socket with one reader, every client's, holds its lease
	// inline.
	lent lease
	more []*lease
}

// lease is one receiving process's hold on a socket: the payloads of its
// last receive. A killed process, or one that never receives again, keeps
// its lease until the simulation ends.
type lease struct {
	owner any    // the receiving *sim.Proc or *sim.Task, or tryOwner; nil while unused
	b     []byte // the last single receive's payload
	tl    *taskLease
}

// taskLease is the part of a lease only task-form receives need, made on
// the first that needs it: the last RecvBatchT's payloads and the state of a
// parked receive. A parked receive runs the thunk bound here, which takes
// the payloads before the caller's continuation runs with them.
type taskLease struct {
	l     *lease
	bs    [][]byte
	k     func(Datagram)
	kn    func(int)
	buf   []Datagram
	gotK  func(Datagram)
	gotNK func(int)
}

// tryOwner is TryRecv's receiving process: polls from outside any process
// share one lease.
type tryOwner struct{}

// renew returns owner's lease, after handing the payloads of its last
// receive back to the network.
func (s *UDPSocket) renew(owner any) *lease {
	l := &s.lent
	if l.owner != owner {
		l = s.leaseOf(owner)
	}
	n := s.host.net
	if l.b != nil {
		n.release(l.b)
		l.b = nil
	}
	if tl := l.tl; tl != nil {
		for i, b := range tl.bs {
			n.release(b)
			tl.bs[i] = nil
		}
		tl.bs = tl.bs[:0]
	}
	return l
}

// leaseOf finds owner's lease, or gives it one: the inline lease while it is
// unused, else a new one in more.
func (s *UDPSocket) leaseOf(owner any) *lease {
	if s.lent.owner == nil {
		s.lent.owner = owner
		return &s.lent
	}
	for _, l := range s.more {
		if l.owner == owner {
			return l
		}
	}
	l := &lease{owner: owner}
	s.more = append(s.more, l)
	return l
}

// task returns the lease's task-form part, binding its thunks the first time.
func (l *lease) task() *taskLease {
	if l.tl == nil {
		tl := &taskLease{l: l}
		tl.gotK, tl.gotNK = tl.got, tl.gotN
		l.tl = tl
	}
	return l.tl
}

// got takes a parked RecvT's datagram, then runs its continuation.
func (tl *taskLease) got(dg Datagram) {
	k := tl.k
	tl.k, tl.l.b = nil, dg.Payload
	k(dg)
}

// gotN takes a parked RecvBatchT's n datagrams, then runs its continuation.
func (tl *taskLease) gotN(n int) {
	k, buf := tl.kn, tl.buf
	tl.kn, tl.buf = nil, nil
	tl.take(buf[:n])
	k(n)
}

// take holds a batch's payloads.
func (tl *taskLease) take(dgs []Datagram) {
	for i := range dgs {
		tl.bs = append(tl.bs, dgs[i].Payload)
	}
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
// are silently dropped (as on a real network). The payload is copied into a
// buffer from the network's free list, lent to the receiver (see
// UDPSocket); the caller keeps payload. The network's fault plan, if any,
// may drop or duplicate the datagram; a duplicate carries a copy of its own.
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
	fate := n.faults.Datagram()
	if fate == fault.Drop {
		if checked {
			n.udpWireDropped++
		}
		return // lost on the wire
	}
	dg := Datagram{From: s.Addr(), To: to, Payload: n.copyOf(payload)}
	n.transmit(s.host, dst, len(payload), udpOverhead, n.flight(dst, dg, checked))
	if fate == fault.Duplicate {
		if checked {
			n.udpDuplicated++
		}
		// The copy serializes behind the original on the same links, in a
		// buffer of its own: each delivery is lent on its own.
		dg.Payload = n.copyOf(payload)
		n.transmit(s.host, dst, len(payload), udpOverhead, n.flight(dst, dg, checked))
	}
}

// flight is one datagram on the wire. Records recycle through
// Network.flights and arrive is bound once, so a send allocates at most its
// payload copy, and none once the pool holds the buffers in flight and on
// lease.
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
// stamping the arrival, and recycles the record. A datagram nobody receives
// returns its payload to the free list.
func (f *flight) land() {
	n, dst, dg, checked := f.n, f.dst, f.dg, f.checked
	f.dst, f.dg = nil, Datagram{}
	n.flights = append(n.flights, f)
	sock, ok := dst.udp[dg.To.Port]
	if !ok {
		if checked {
			n.udpUnreachable++
		}
		n.release(dg.Payload)
		return // port unreachable
	}
	dg.EnqueuedAt = n.sim.Now()
	if !sock.rxq.TryPut(dg) {
		n.release(dg.Payload)
		dst.dropped++
		if checked {
			n.udpRxqDropped++
		}
	} else if checked {
		n.udpDelivered++
	}
}

// Recv blocks until a datagram arrives.
func (s *UDPSocket) Recv(p *sim.Proc) Datagram {
	l := s.renew(p)
	dg := s.rxq.Get(p)
	l.b = dg.Payload
	return dg
}

// RecvTimeout blocks up to d for a datagram, following the package-wide
// (value, ok, err) timeout-receive idiom: ok is false on timeout, and err is
// reserved for socket-level failures (always nil for UDP today — a timed-out
// or successful receive never sets it).
func (s *UDPSocket) RecvTimeout(p *sim.Proc, d time.Duration) (Datagram, bool, error) {
	l := s.renew(p)
	dg, ok := s.rxq.GetTimeout(p, d)
	l.b = dg.Payload
	return dg, ok, nil
}

// RecvT is Recv for tasks: reports (dg, true) when a datagram was already
// queued (continuation NOT called — caller continues inline), else parks the
// task and fn runs when one arrives.
func (s *UDPSocket) RecvT(t *sim.Task, fn func(Datagram)) (Datagram, bool) {
	l := s.renew(t)
	if dg, ok := s.rxq.TryGet(); ok {
		l.b = dg.Payload
		return dg, true
	}
	tl := l.task()
	tl.k = fn
	s.rxq.GetT(t, tl.gotK) // the queue was just found empty: never inline
	return Datagram{}, false
}

// RecvBatchT receives up to len(buf) datagrams: it waits for the first, then
// drains whatever is already queued without waiting — the dispatcher's
// batched dequeue, one wakeup per burst instead of one per packet. It has
// RecvT's inline-return convention: (n, true) means n datagrams were stored
// inline. All n payloads are lent until t's next receive.
func (s *UDPSocket) RecvBatchT(t *sim.Task, buf []Datagram, fn func(int)) (int, bool) {
	tl := s.renew(t).task()
	tl.kn, tl.buf = fn, buf
	n, ok := s.rxq.GetBatchT(t, buf, tl.gotNK)
	if ok {
		tl.kn, tl.buf = nil, nil
		tl.take(buf[:n])
	}
	return n, ok
}

// TryRecv polls for a datagram without blocking. Every poll is one
// receiving process's: its payload is lent until the next TryRecv.
func (s *UDPSocket) TryRecv() (Datagram, bool) {
	l := s.renew(tryOwner{})
	dg, ok := s.rxq.TryGet()
	l.b = dg.Payload
	return dg, ok
}

// Serve starts the socket's server: n worker processes, named name/0 to
// name/n-1 and spawned in that order, share the socket, each looping
// receive → handle → reply. handle gets the worker's index and the sender,
// charges its own costs on p and appends the reply to out, a buffer the
// worker reuses for every request; the worker sends the reply to the
// sender, and a nil reply sends nothing (a dropped request). The reply must
// not alias msg, which is lent only until the worker's next receive, the
// rule GPU.Serve's handlers follow too.
func (s *UDPSocket) Serve(name string, n int, handle func(p *sim.Proc, w int, from Addr, msg, out []byte) []byte) {
	for w := 0; w < n; w++ {
		s.host.net.sim.Spawn(fmt.Sprintf("%s/%d", name, w), func(p *sim.Proc) {
			out := []byte{} // non-nil, so an empty reply is still sent
			for {
				dg := s.Recv(p)
				if r := handle(p, w, dg.From, dg.Payload, out[:0]); r != nil {
					out = r
					s.SendTo(dg.From, out)
				}
			}
		})
	}
}

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
// message, the unit every experiment in the paper operates on). A
// connection serves one reader at a time, and a received message is lent to
// it until its next receive on the connection, which returns the message to
// the network's free list before anything else; a reader that keeps a
// message longer, or hands it to another process, copies it. A second
// reader that receives while the first waits panics: its receive would
// return the first reader's message to the pool.
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

	// parked is set while an untimed reader (Recv, RecvQueued, RecvQueuedT)
	// waits on rxq, so a close or reset knows to wake it with an eof notice;
	// waiting while any reader, timed or not, does.
	parked, waiting bool
	// lent is the message of the reader's last receive.
	lent []byte
	// rk is the pending RecvQueuedT continuation; gotK, bound once, hands
	// it the dequeued message.
	rk   func(msg []byte, enq sim.Time, err error)
	gotK func(tcpMsg)
}

// tcpMsg is one framed message with its receive-queue entry time, so TCP
// receivers can attribute queue residency like UDP's Datagram.EnqueuedAt.
// An eof entry carries no data: it is the in-band notice of a FIN or RST
// that wakes a parked reader, queued behind every message that came first.
type tcpMsg struct {
	b   []byte
	enq sim.Time
	eof bool
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

// AcceptT is Accept for tasks, with RecvT's inline-return convention:
// (conn, true) means a connection was already waiting and k never runs;
// otherwise t parks and k runs with the next one.
func (l *TCPListener) AcceptT(t *sim.Task, k func(*TCPConn)) (*TCPConn, bool) {
	return l.backlog.GetT(t, k)
}

// Serve starts the listener's server: an accept process named name, which
// gives each connection a process named name/conn that loops receive →
// handle → send and ends when a receive or a send fails. handle charges its
// own costs on p and appends the reply to out, a buffer the connection's
// process reuses. As with UDPSocket.Serve, the reply must not alias msg,
// which is lent only until the next receive.
func (l *TCPListener) Serve(name string, handle func(p *sim.Proc, msg, out []byte) []byte) {
	s := l.host.net.sim
	s.Spawn(name, func(p *sim.Proc) {
		for {
			conn := l.Accept(p)
			s.Spawn(name+"/conn", func(p *sim.Proc) {
				var out []byte
				for {
					msg, err := conn.Recv(p)
					if err != nil {
						return
					}
					out = handle(p, msg, out[:0])
					if conn.Send(p, out) != nil {
						return
					}
				}
			})
		}
	})
}

// TCPDial establishes a connection to addr, blocking for the handshake
// (SYN + SYN-ACK round trip).
func (h *Host) TCPDial(p *sim.Proc, to Addr) (*TCPConn, error) {
	c, established, err := h.dial(to)
	if err != nil {
		return nil, err
	}
	established.Get(p)
	return c, nil
}

// TCPDialT is TCPDial for tasks: k runs with the connection once the
// handshake completes, or at once with the error.
func (h *Host) TCPDialT(t *sim.Task, to Addr, k func(*TCPConn, error)) {
	c, established, err := h.dial(to)
	if err != nil {
		k(nil, err)
		return
	}
	established.GetT(t, func(struct{}) { k(c, nil) }) // a round trip away: never inline
}

// dial creates both ends of a connection to addr and starts the handshake;
// established receives once the SYN-ACK is back.
func (h *Host) dial(to Addr) (c *TCPConn, established *sim.Chan[struct{}], err error) {
	dst, ok := h.net.hosts[to.Host]
	if !ok {
		return nil, nil, fmt.Errorf("netstack: no route to host %q", to.Host)
	}
	l, ok := dst.listeners[to.Port]
	if !ok {
		return nil, nil, fmt.Errorf("netstack: connection refused: %v", to)
	}
	h.net.ephemeral++
	local := Addr{Host: h.name, Port: h.net.ephemeral}

	client := &TCPConn{net: h.net, local: local, remote: to, localHost: h, remoteHost: dst,
		rxq: sim.NewChan[tcpMsg](h.net.sim, 0)}
	server := &TCPConn{net: h.net, local: to, remote: local, localHost: dst, remoteHost: h,
		rxq: sim.NewChan[tcpMsg](h.net.sim, 0)}
	client.peer, server.peer = server, client

	established = sim.NewChan[struct{}](h.net.sim, 0)
	// SYN out...
	h.net.transmit(h, dst, 0, tcpOverhead, func() {
		// ...SYN-ACK back.
		h.net.transmit(dst, h, 0, tcpOverhead, func() {
			established.TryPut(struct{}{})
		})
		l.backlog.TryPut(server)
	})
	return client, established, nil
}

// RemoteAddr returns the peer's address.
func (c *TCPConn) RemoteAddr() Addr { return c.remote }

// Send transmits one framed message to the peer. Each message also costs an
// ACK in the reverse direction, which is what makes TCP dearer on the wire
// as well as on the CPU. Under a fault plan, a "lost" segment manifests as
// retransmission delay — the reliable transport masks the loss, as real TCP
// does. The message is copied into a buffer from the network's free list,
// lent to the receiver (see TCPConn).
func (c *TCPConn) Send(p *sim.Proc, msg []byte) error {
	if c.closed {
		return ErrConnClosed
	}
	if c.reset {
		return ErrConnReset
	}
	c.net.transmitDelayed(c.localHost, c.remoteHost, len(msg), tcpOverhead, c.net.faults.TCPDelay(), c.net.segment(c, c.net.copyOf(msg)))
	return nil
}

// segment is one TCP message on the wire. Records recycle through
// Network.segs and arrive is bound once, like UDP's flight, and the payload
// copy comes from the network's free list.
type segment struct {
	n      *Network
	from   *TCPConn
	b      []byte
	arrive func() // pre-bound g.land
}

// segment takes a wire record carrying b from c to its peer and returns its
// arrival thunk.
func (n *Network) segment(c *TCPConn, b []byte) func() {
	var g *segment
	if k := len(n.segs); k > 0 {
		g = n.segs[k-1]
		n.segs[k-1] = nil
		n.segs = n.segs[:k-1]
	} else {
		g = &segment{n: n}
		g.arrive = g.land
	}
	g.from, g.b = c, b
	return g.arrive
}

// land queues the message at the receiving end unless that end has shut,
// sends the ACK back, and recycles the record.
func (g *segment) land() {
	n, c, b := g.n, g.from, g.b
	g.from, g.b = nil, nil
	n.segs = append(n.segs, g)
	peer := c.peer
	if peer.closed || peer.reset {
		n.release(b)
		return
	}
	// unbounded: flow control not modelled
	peer.rxq.TryPut(tcpMsg{b: b, enq: n.sim.Now()})
	// Delayed ACK traffic back: it occupies the links, and nothing waits
	// for it.
	n.transmit(c.remoteHost, c.localHost, 0, tcpOverhead, nil)
}

// Recv blocks for the next message from the peer.
func (c *TCPConn) Recv(p *sim.Proc) ([]byte, error) {
	msg, _, err := c.RecvQueued(p)
	return msg, err
}

// RecvQueued is Recv returning also the virtual time the message entered the
// receive queue, for queue-wait attribution. A reader blocked on an empty
// queue parks with no timer: the next message wakes it, and so does a close
// or reset, which it sees once every message queued before it is read.
func (c *TCPConn) RecvQueued(p *sim.Proc) ([]byte, sim.Time, error) {
	if msg, enq, err, done := c.recvNow(); done {
		return msg, enq, err
	}
	c.parked, c.waiting = true, true
	m := c.rxq.Get(p)
	c.parked, c.waiting = false, false
	return c.take(m)
}

// RecvQueuedT is RecvQueued for tasks: k runs with the result, inline when
// a message is queued or the connection has failed; otherwise t parks, and
// k runs with the next message, close or reset.
func (c *TCPConn) RecvQueuedT(t *sim.Task, k func(msg []byte, enq sim.Time, err error)) {
	if msg, enq, err, done := c.recvNow(); done {
		k(msg, enq, err)
		return
	}
	if c.gotK == nil {
		c.gotK = c.got
	}
	c.rk, c.parked, c.waiting = k, true, true
	// The queue was just found empty, so the wait cannot complete inline.
	c.rxq.GetT(t, c.gotK)
}

// got ends a RecvQueuedT wait with the dequeued message.
func (c *TCPConn) got(m tcpMsg) {
	k := c.rk
	c.rk, c.parked, c.waiting = nil, false, false
	k(c.take(m))
}

// recvNow starts a receive: it ends the lease of the last one, then takes a
// queued message or reports the connection's error without waiting; done is
// false when the receiver has to wait.
func (c *TCPConn) recvNow() (msg []byte, enq sim.Time, err error, done bool) {
	if c.waiting {
		panic(fmt.Sprintf("netstack: second reader on TCP connection %v -> %v", c.local, c.remote))
	}
	if c.lent != nil {
		c.net.release(c.lent)
		c.lent = nil
	}
	if m, ok := c.rxq.TryGet(); ok {
		msg, enq, err = c.take(m)
		return msg, enq, err, true
	}
	if err := c.err(); err != nil {
		return nil, 0, err, true
	}
	return nil, 0, nil, false
}

// take unpacks a dequeued entry: a message, lent to the reader, or the
// connection's error for an eof notice.
func (c *TCPConn) take(m tcpMsg) ([]byte, sim.Time, error) {
	if m.eof {
		return nil, 0, c.err()
	}
	c.lent = m.b
	return m.b, m.enq, nil
}

// err reports why the connection no longer delivers (a reset outranks a
// close), or nil while it is open.
func (c *TCPConn) err() error {
	if c.reset {
		return ErrConnReset
	}
	if c.closed {
		return ErrConnClosed
	}
	return nil
}

// RecvQueuedTimeout is RecvTimeout returning also the receive-queue entry
// time of the message. It reports a close or reset that is already known
// when it is called; one that arrives during the wait does not end it
// early, so the wait runs its full d and reports a timeout.
func (c *TCPConn) RecvQueuedTimeout(p *sim.Proc, d time.Duration) ([]byte, sim.Time, bool, error) {
	if msg, enq, err, done := c.recvNow(); done {
		return msg, enq, err == nil, err
	}
	c.waiting = true
	m, ok := c.rxq.GetTimeout(p, d)
	c.waiting = false
	if !ok {
		return nil, 0, false, nil
	}
	msg, enq, err := c.take(m)
	return msg, enq, err == nil, err
}

// shut ends delivery on this end, by a reset or a close. On the end's first
// such transition it wakes a parked untimed reader with an eof notice.
func (c *TCPConn) shut(reset bool) {
	open := c.err() == nil
	if reset {
		c.reset = true
	} else {
		c.closed = true
	}
	if open && c.parked {
		c.rxq.TryPut(tcpMsg{eof: true})
	}
}

// Abort resets the connection immediately on both ends (failure injection:
// the SNIC reports such errors to accelerators through the mqueue metadata
// error status, §5.1). A reader blocked on either end wakes now.
func (c *TCPConn) Abort() {
	c.shut(true)
	c.peer.shut(true)
}
