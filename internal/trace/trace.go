// Package trace provides a lightweight, fixed-memory event tracer for the
// Lynx runtime: a ring of typed events (message received, dispatched,
// drained, forwarded, dropped, relayed) with virtual timestamps. A node's
// ring lives in its SpanTable (Emit, Events), so the node's whole runtime
// record is one object. It exists for the observability a production server
// needs — `lynxd -trace` dumps the tail of node 0's ring, and tests assert
// on event flows.
package trace

import (
	"fmt"
	"time"

	"lynx/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds, following one request through the runtime.
const (
	// Recv: a message arrived from the network (arg0 = payload bytes).
	Recv Kind = iota
	// Dispatch: the dispatcher pushed it into an mqueue (arg0 = queue
	// index, arg1 = RX slot).
	Dispatch
	// Drain: the MQ manager drained a TX message (arg0 = TX slot, arg1 =
	// correlation/request slot).
	Drain
	// Forward: a response left toward a client (arg0 = payload bytes).
	Forward
	// Relay: a pipeline stage-to-stage hand-off (arg0 = next stage).
	Relay
	// Drop: a message was discarded (arg0 = queue index).
	Drop
	// BackendOut: a client-mqueue message left toward a backend.
	BackendOut
	// BackendIn: a backend response was pushed into a client mqueue.
	BackendIn
	// Failover: the MQ-manager watchdog changed a queue's health (arg0 =
	// queue index, arg1 = 0 for failover, 1 for failback).
	Failover
	// PeerKill: the replicator's ack-deadline detector declared a replica
	// peer dead (arg0 = peer index, arg1 = acks waived by the kill).
	PeerKill
	// QuorumShrink: a peer kill shrank the effective write quorum (arg0 =
	// live-peer count after the kill, arg1 = 0: a write waits for every
	// live peer).
	QuorumShrink
	// ReplRelease: a client response held for replication was released at
	// quorum (arg0 = responses released, arg1 = acks still outstanding).
	ReplRelease
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Recv:
		return "recv"
	case Dispatch:
		return "dispatch"
	case Drain:
		return "drain"
	case Forward:
		return "forward"
	case Relay:
		return "relay"
	case Drop:
		return "drop"
	case BackendOut:
		return "backend-out"
	case BackendIn:
		return "backend-in"
	case Failover:
		return "failover"
	case PeerKill:
		return "peer-kill"
	case QuorumShrink:
		return "quorum-shrink"
	case ReplRelease:
		return "repl-release"
	default:
		return "unknown"
	}
}

// Event is one traced occurrence.
type Event struct {
	At   sim.Time
	Kind Kind
	Arg0 uint64
	Arg1 uint64
}

// String formats the event for dumps, labelling Arg0/Arg1 per kind.
func (e Event) String() string {
	var args string
	switch e.Kind {
	case Recv:
		args = fmt.Sprintf("bytes=%d port=%d", e.Arg0, e.Arg1)
	case Dispatch:
		args = fmt.Sprintf("queue=%d slot=%d", e.Arg0, e.Arg1)
	case Drain:
		args = fmt.Sprintf("slot=%d corr=%d", e.Arg0, e.Arg1)
	case Forward:
		args = fmt.Sprintf("bytes=%d", e.Arg0)
	case Relay:
		args = fmt.Sprintf("stage=%d", e.Arg0)
	case Drop:
		args = fmt.Sprintf("queue=%d cause=%d", e.Arg0, e.Arg1)
	case BackendOut, BackendIn:
		args = fmt.Sprintf("bytes=%d queue=%d", e.Arg0, e.Arg1)
	case Failover:
		dir := "failed"
		if e.Arg1 == 1 {
			dir = "restored"
		}
		args = fmt.Sprintf("queue=%d %s", e.Arg0, dir)
	case PeerKill:
		args = fmt.Sprintf("peer=%d waived=%d", e.Arg0, e.Arg1)
	case QuorumShrink:
		args = fmt.Sprintf("live=%d quorum=%d", e.Arg0, e.Arg1)
	case ReplRelease:
		args = fmt.Sprintf("released=%d outstanding=%d", e.Arg0, e.Arg1)
	default:
		args = fmt.Sprintf("arg0=%d arg1=%d", e.Arg0, e.Arg1)
	}
	return fmt.Sprintf("%-12v %-11s %s", time.Duration(e.At), e.Kind, args)
}

// Tracer is a fixed-capacity event ring. A nil *Tracer is valid and records
// nothing, so call sites never need nil checks beyond the method receiver.
type Tracer struct {
	ring   []Event
	next   int
	total  uint64
	counts [numKinds]uint64
}

// New creates a tracer holding the most recent capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Emit records one event. Safe on a nil tracer.
func (t *Tracer) Emit(at sim.Time, kind Kind, arg0, arg1 uint64) {
	if t == nil {
		return
	}
	ev := Event{At: at, Kind: kind, Arg0: arg0, Arg1: arg1}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	if int(kind) < len(t.counts) {
		t.counts[kind]++
	}
}

// Loss is a bounded ring's capacity and how many entries it overwrote.
type Loss struct {
	Cap  int    `json:"cap"`
	Lost uint64 `json:"lost"`
}

// String renders the loss, e.g. "cap 4096, lost 812".
func (l Loss) String() string { return fmt.Sprintf("cap %d, lost %d", l.Cap, l.Lost) }

// Loss reports the ring's capacity and the events it overwrote: Total minus
// the events it keeps.
func (t *Tracer) Loss() Loss {
	if t == nil {
		return Loss{}
	}
	return Loss{Cap: cap(t.ring), Lost: t.Total() - uint64(len(t.ring))}
}

// Total reports all events ever emitted (including evicted ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Count reports events of one kind ever emitted.
func (t *Tracer) Count(kind Kind) uint64 {
	if t == nil || int(kind) >= len(t.counts) {
		return 0
	}
	return t.counts[kind]
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.ring) == 0 {
		return nil
	}
	// Until the ring fills, next is its length and the first part empty.
	out := append(make([]Event, 0, len(t.ring)), t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Tail returns the most recent n retained events.
func (t *Tracer) Tail(n int) []Event {
	evs := t.Events()
	if n >= len(evs) {
		return evs
	}
	return evs[len(evs)-n:]
}

// Summary formats per-kind counters.
func (t *Tracer) Summary() string {
	if t == nil {
		return "trace disabled"
	}
	s := ""
	for k := Kind(0); k < numKinds; k++ {
		if t.counts[k] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, t.counts[k])
	}
	if s == "" {
		return "no events"
	}
	return s
}
