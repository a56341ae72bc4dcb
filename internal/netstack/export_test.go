package netstack

import (
	"time"

	"lynx/internal/fault"
	"lynx/internal/sim"
)

// Faults returns the installed fault plan (possibly nil).
func (n *Network) Faults() *fault.Plan { return n.faults }

// Pending reports queued datagrams.
func (s *UDPSocket) Pending() int { return s.rxq.Len() }

// Close unbinds the socket.
func (s *UDPSocket) Close() { delete(s.host.udp, s.port) }

// Close stops listening.
func (l *TCPListener) Close() { delete(l.host.listeners, l.port) }

// LocalAddr returns this side's address.
func (c *TCPConn) LocalAddr() Addr { return c.local }

// RecvTimeout blocks up to d for the next message.
func (c *TCPConn) RecvTimeout(p *sim.Proc, d time.Duration) ([]byte, bool, error) {
	msg, _, ok, err := c.RecvQueuedTimeout(p, d)
	return msg, ok, err
}

// Close shuts the connection down gracefully on both ends (FIN exchange is
// abstracted to a one-way notification delay). A reader blocked on this end
// wakes now; one blocked on the peer wakes when the FIN lands.
func (c *TCPConn) Close() {
	if c.closed {
		return
	}
	c.shut(false)
	peer := c.peer
	c.net.transmit(c.localHost, c.remoteHost, 0, tcpOverhead, func() { peer.shut(false) })
}

// Reset reports whether the connection was aborted.
func (c *TCPConn) Reset() bool { return c.reset }
