package mqueue

// Stats reports pushes, TX messages drained, and RX-full events.
func (q *Queue) Stats() (pushed, polled, full uint64) { return q.pushed, q.polled, q.full }

// Refreshes reports header-block reads performed.
func (g *Group) Refreshes() uint64 { return g.refreshes }
