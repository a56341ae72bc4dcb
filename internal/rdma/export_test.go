package rdma

import "lynx/internal/fabric"

// Credits reports remaining UC receive credits.
func (qp *QP) Credits() int { return qp.credits }

// Dropped reports UC writes discarded for lack of credits.
func (qp *QP) Dropped() uint64 { return qp.dropped }

// Stats reports posted and completed WR counts.
func (qp *QP) Stats() (posted, completed uint64) { return qp.posted, qp.complete }

// Target returns the device at the remote end of the QP.
func (qp *QP) Target() *fabric.Device { return qp.target }

// Remote reports whether the QP crosses the network.
func (qp *QP) Remote() bool { return qp.remote > 0 }
