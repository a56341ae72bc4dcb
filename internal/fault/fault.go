// Package fault is the deterministic fault-injection plane of the Lynx
// simulation. Production SmartNIC stacks live or die by how they behave under
// loss, stalls and overload, so every layer of the simulated hardware stack
// consults one seeded Plan:
//
//   - the netstack asks Datagram whether to drop or duplicate a datagram on
//     the wire, and TCPDelay whether a TCP segment pays a retransmission;
//   - the RDMA engine asks RDMAError whether a work request suffers a
//     completion error (retried transparently by the RC transport, surfaced
//     as RDMARetryLatency plus a counter);
//   - the accelerator-side mqueue library asks StallRemaining whether its
//     GPU threadblock or VCA node is inside a configured stall window.
//
// The Plan draws from its own seeded PCG stream, independent of the
// simulation's: two clusters built with the same simulation seed and the same
// fault Config produce byte-identical runs. A nil *Plan is valid and injects
// nothing, so call sites never need nil checks.
package fault

import (
	"fmt"
	"math/rand/v2"
	"time"

	"lynx/internal/sim"
)

// Stall schedules one accelerator stall window in virtual time: the targeted
// queue's accelerator-side context (persistent-kernel threadblock, VCA node
// loop) freezes on its next mqueue access inside the window and resumes when
// the window closes.
type Stall struct {
	// Accel names the accelerator (as registered on the fabric, e.g. "gpu0").
	Accel string
	// Queue is the mqueue index within the accelerator's group; negative
	// stalls every queue of the accelerator.
	Queue int
	// At is the window start, in virtual time since boot.
	At time.Duration
	// For is the window length.
	For time.Duration
}

// Config declares the faults a Plan injects. The zero value injects nothing.
type Config struct {
	// Seed for the fault plan's own random stream (independent of the
	// simulation seed). The zero seed is valid and deterministic.
	Seed uint64

	// --- Network (per-datagram, consulted by the netstack) ---------------

	// DropRate is the probability a UDP datagram is lost on the wire. On
	// TCP the same rate manifests as retransmission delay instead (the
	// simulated TCP is reliable, like the real one).
	DropRate float64
	// DupRate is the probability a UDP datagram is delivered twice.
	DupRate float64

	// --- RDMA -------------------------------------------------------------

	// RDMAErrRate is the probability a work request completes in error and
	// is retried by the RC transport (go-back-N), costing RDMARetryLatency.
	RDMAErrRate float64

	// --- Accelerators -----------------------------------------------------

	// Stalls schedules accelerator stall windows.
	Stalls []Stall
}

const (
	// TCPRetransmit is the added delay a lost TCP segment costs (one
	// retransmission timeout).
	TCPRetransmit = time.Millisecond
	// RDMARetryLatency is the added latency of one RDMA retry.
	RDMARetryLatency = 8 * time.Microsecond
)

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.DupRate > 0 || c.RDMAErrRate > 0 || len(c.Stalls) > 0
}

// Validate rejects a probability outside [0, 1] (NaN included): a rate of 2
// would drop everything and one of -0.5 nothing, silently.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop", c.DropRate}, {"duplication", c.DupRate}, {"RDMA error", c.RDMAErrRate},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("fault: %s probability %g: must be within [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// Stats counts injected faults, for observability and tests.
type Stats struct {
	DatagramsDropped    uint64
	DatagramsDuplicated uint64
	TCPDelays           uint64
	RDMAErrors          uint64
	StallHits           uint64
}

// String formats the counters on one line (stable field order, so it is safe
// to compare across runs in determinism tests).
func (s Stats) String() string {
	return fmt.Sprintf("drop=%d dup=%d tcpdelay=%d rdmaerr=%d stallhits=%d",
		s.DatagramsDropped, s.DatagramsDuplicated, s.TCPDelays, s.RDMAErrors, s.StallHits)
}

// Fate is the outcome drawn for one datagram.
type Fate int

const (
	// Deliver passes the datagram through untouched.
	Deliver Fate = iota
	// Drop loses it on the wire.
	Drop
	// Duplicate delivers it twice.
	Duplicate
)

// Plan is a live fault injector built from a Config. All methods are safe on
// a nil receiver (no faults).
type Plan struct {
	cfg   Config
	rng   *rand.Rand
	stats Stats
}

// NewPlan builds a Plan. A disabled config returns a valid Plan that
// injects nothing (callers may also keep a nil *Plan).
func NewPlan(cfg Config) *Plan {
	return &Plan{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0xfa17_fa17_fa17_fa17)),
	}
}

// Stats returns the fault counters so far.
func (pl *Plan) Stats() Stats {
	if pl == nil {
		return Stats{}
	}
	return pl.stats
}

// Datagram draws the fate of one UDP datagram.
func (pl *Plan) Datagram() Fate {
	if pl == nil {
		return Deliver
	}
	c := &pl.cfg
	if c.DropRate > 0 && pl.rng.Float64() < c.DropRate {
		pl.stats.DatagramsDropped++
		return Drop
	}
	if c.DupRate > 0 && pl.rng.Float64() < c.DupRate {
		pl.stats.DatagramsDuplicated++
		return Duplicate
	}
	return Deliver
}

// TCPDelay draws the extra delay of one TCP segment: a lost segment costs
// TCPRetransmit (the reliable transport masks the loss).
func (pl *Plan) TCPDelay() time.Duration {
	if pl == nil {
		return 0
	}
	if c := &pl.cfg; c.DropRate > 0 && pl.rng.Float64() < c.DropRate {
		pl.stats.TCPDelays++
		return TCPRetransmit
	}
	return 0
}

// RDMAError draws whether one RDMA work request suffers a (transparently
// retried) completion error, which costs it RDMARetryLatency.
func (pl *Plan) RDMAError() bool {
	if pl == nil {
		return false
	}
	if c := &pl.cfg; c.RDMAErrRate > 0 && pl.rng.Float64() < c.RDMAErrRate {
		pl.stats.RDMAErrors++
		return true
	}
	return false
}

// StallRemaining reports how long the given accelerator queue must freeze
// from now: the time left in the latest-ending stall window covering now, or
// zero outside every window. Accelerator-side mqueue accesses sleep this long
// before touching the rings.
func (pl *Plan) StallRemaining(accel string, queue int, now sim.Time) time.Duration {
	if pl == nil || len(pl.cfg.Stalls) == 0 {
		return 0
	}
	var rem time.Duration
	for _, st := range pl.cfg.Stalls {
		if st.Accel != accel || (st.Queue >= 0 && st.Queue != queue) {
			continue
		}
		start := sim.Time(0).Add(st.At)
		end := start.Add(st.For)
		if now >= start && now < end {
			if left := end.Sub(now); left > rem {
				rem = left
			}
		}
	}
	if rem > 0 {
		pl.stats.StallHits++
	}
	return rem
}
