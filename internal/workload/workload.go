// Package workload provides sockperf-style load generators (§6: "We use
// sockperf with VMA to evaluate the server performance"): closed-loop
// clients for saturation throughput over UDP or TCP, and open-loop
// (fixed-rate) UDP clients for latency-under-load.
//
// Convention: every request carries an 8-byte little-endian sequence number
// prefix which servers echo back in their response (an RPC id), so the
// generator can match responses to requests and compute exact latencies
// even when the service reorders replies.
package workload

import (
	"encoding/binary"
	"fmt"
	"time"

	"lynx/internal/check"
	"lynx/internal/metrics"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// SeqBytes is the request/response sequence header length.
const SeqBytes = 8

// Seq extracts the sequence number from a message.
func Seq(msg []byte) (uint64, bool) {
	if len(msg) < SeqBytes {
		return 0, false
	}
	return binary.LittleEndian.Uint64(msg), true
}

// PutSeq writes the sequence header into buf.
func PutSeq(buf []byte, seq uint64) {
	binary.LittleEndian.PutUint64(buf, seq)
}

// Proto selects the transport.
type Proto int

const (
	// UDP datagrams.
	UDP Proto = iota
	// TCP framed messages.
	TCP
)

// Config shapes a load generation run.
type Config struct {
	Proto  Proto
	Target netstack.Addr
	// Payload is the request size including the sequence header.
	Payload int
	// Body customizes request bytes after the sequence header (optional).
	// buf is the client's one request buffer, zero past the header at each
	// call; Body must not keep it.
	Body func(seq uint64, buf []byte)
	// Clients is the closed-loop concurrency (one in-flight request per
	// client), or the number of sending sockets for open-loop.
	Clients int
	// RatePerSec, when non-zero, switches UDP clients to open-loop mode:
	// requests are issued at this aggregate rate regardless of responses.
	// TCP clients are closed loop only.
	RatePerSec float64
	// Poisson makes open-loop inter-arrival times exponentially
	// distributed (memoryless arrivals) instead of periodic.
	Poisson bool
	// Duration bounds the measurement window.
	Duration time.Duration
	// Warmup is discarded before measuring (paper: 2 s warmup).
	Warmup time.Duration
	// Timeout for closed-loop responses (lost requests are retried with
	// a fresh sequence number). Defaults to 10 ms.
	Timeout time.Duration
	// Retries bounds same-sequence retransmits of a timed-out closed-loop
	// UDP request before it is declared lost (0 = no retransmit). Each
	// retransmit doubles the wait (exponential backoff), so a request can
	// occupy its client for up to Timeout * (2^(Retries+1)-1).
	Retries int
	// BasePort is the first client-side UDP port (default 20000). Give
	// each concurrently running generator its own range.
	BasePort uint16
	// Spans, when non-nil, opens a request span per measured request (the
	// sequence number is the span ID, matching the server-side stamps) and
	// closes it on response, loss, or timeout.
	Spans *trace.SpanTable
	// Check, when enabled, registers the generator's end-of-run request
	// conservation check: every request ever issued (warmup included) is
	// matched to a response, abandoned, or still in flight at shutdown.
	Check *check.Checker
}

// Result summarizes one run.
type Result struct {
	Sent     uint64
	Received uint64
	Lost     uint64
	// Retries counts same-sequence retransmits issued in the window.
	Retries uint64
	Hist    *metrics.Histogram
	Window  time.Duration
}

// Clone returns a copy of r with its own histogram, so recording into the
// copy leaves r unchanged.
func (r Result) Clone() Result {
	if r.Hist != nil {
		h := *r.Hist
		r.Hist = &h
	}
	return r
}

// Throughput reports measured responses per second (the goodput: only
// requests that produced a response count).
func (r Result) Throughput() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Received) / r.Window.Seconds()
}

// GoodputFraction reports Received/Sent, the per-request success rate.
func (r Result) GoodputFraction() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Received) / float64(r.Sent)
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("%.0f req/s (n=%d lost=%d retries=%d p50=%v p90=%v p99=%v)",
		r.Throughput(), r.Received, r.Lost, r.Retries, r.Hist.Median(), r.Hist.P90(), r.Hist.P99())
}

// Generator drives load from one or more client hosts.
type Generator struct {
	sim   *sim.Sim
	hosts []*netstack.Host
	cfg   Config

	seq       uint64
	result    Result
	measuring bool
	startedAt sim.Time
	endAt     sim.Time
	inflight  map[uint64]sim.Time
	done      int

	// Lifetime request ledger (warmup included), for the conservation
	// invariant: issued == matched + abandoned + len(inflight).
	issued    uint64
	matched   uint64
	abandoned uint64
}

// New creates a generator sending from the given client hosts (requests are
// spread across them round-robin).
func New(s *sim.Sim, cfg Config, hosts ...*netstack.Host) *Generator {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Payload < SeqBytes {
		cfg.Payload = SeqBytes
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Millisecond
	}
	if len(hosts) == 0 {
		panic("workload: need at least one client host")
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 20000
	}
	g := &Generator{
		sim: s, hosts: hosts, cfg: cfg,
		result:   Result{Hist: metrics.NewHistogram()},
		inflight: make(map[uint64]sim.Time),
	}
	if ck := cfg.Check; ck.Enabled() {
		ck.AddFinisher("workload.request-conservation", func(fail func(string, ...any)) {
			if g.issued != g.matched+g.abandoned+uint64(len(g.inflight)) {
				fail("issued %d != matched %d + abandoned %d + in-flight %d",
					g.issued, g.matched, g.abandoned, len(g.inflight))
			}
		})
	}
	return g
}

// request writes the next request into buf, the client's one request
// buffer: every send copies it onto the wire, so a client reuses it, and a
// retransmit resends the same bytes.
func (g *Generator) request(buf []byte) uint64 {
	g.seq++
	g.issued++
	clear(buf)
	PutSeq(buf, g.seq)
	if g.cfg.Body != nil {
		g.cfg.Body(g.seq, buf)
	}
	if g.measuring {
		g.result.Sent++
	}
	return g.seq
}

// begin opens a span for a measured request. Warmup requests are not traced,
// so warmup transients never skew the latency breakdown; server-side stamps
// for unopened IDs are no-ops.
func (g *Generator) begin(seq uint64, at sim.Time) {
	if g.measuring {
		g.cfg.Spans.Begin(seq, at)
	}
}

// noteRxWait attributes the response's client-side receive-queue residency
// (enqueue at enq, consumed at now) to the span's network phase. No-op when
// spans are off or the transport carried no enqueue stamp.
func (g *Generator) noteRxWait(msg []byte, enq, now sim.Time) {
	if g.cfg.Spans == nil || enq <= 0 {
		return
	}
	if seq, ok := Seq(msg); ok {
		g.cfg.Spans.AddWait(seq, trace.PhaseNetwork, now.Sub(enq))
	}
}

// record notes a response.
func (g *Generator) record(msg []byte, at sim.Time) {
	seq, ok := Seq(msg)
	if !ok {
		return
	}
	sent, ok := g.inflight[seq]
	if !ok {
		return
	}
	delete(g.inflight, seq)
	g.matched++
	if g.measuring && sent >= g.startedAt {
		g.result.Received++
		g.result.Hist.Record(at.Sub(sent))
		g.cfg.Spans.Close(seq, trace.SpanDone, at)
	}
}

// Run executes the workload to completion (including warmup) and returns
// the measured result. It must be called before the simulation runs; it
// spawns its processes and returns immediately — call Wait (or inspect the
// returned pointer after the simulation) for the outcome.
func (g *Generator) Run() *Result {
	g.endAt = g.sim.Now().Add(g.cfg.Warmup + g.cfg.Duration)
	switch g.cfg.Proto {
	case UDP:
		g.runUDP()
	case TCP:
		if g.cfg.RatePerSec > 0 {
			panic("workload: TCP clients are closed loop only")
		}
		g.runTCP()
	}
	total := g.cfg.Warmup + g.cfg.Duration
	g.sim.After(g.cfg.Warmup, func() {
		g.measuring = true
		g.startedAt = g.sim.Now()
	})
	g.sim.After(total, func() {
		g.measuring = false
		g.result.Window = g.cfg.Duration
		// Requests still in flight at window end are lost only if they
		// are already older than the timeout; fresh ones are stragglers.
		for _, sent := range g.inflight {
			if g.sim.Now().Sub(sent) > g.cfg.Timeout {
				g.result.Lost++
			}
		}
	})
	return &g.result
}

// Done reports whether all client processes finished their window.
func (g *Generator) Done() bool { return g.done == g.cfg.Clients }

func (g *Generator) host(i int) *netstack.Host { return g.hosts[i%len(g.hosts)] }

// gap returns the next inter-send interval: fixed, or exponential with the
// same mean for Poisson arrivals.
func (g *Generator) gap(mean time.Duration) time.Duration {
	if !g.cfg.Poisson {
		return mean
	}
	return time.Duration(g.sim.Rand().ExpFloat64() * float64(mean))
}

func (g *Generator) runUDP() {
	if g.cfg.RatePerSec > 0 {
		g.runUDPOpenLoop()
		return
	}
	end := g.endAt
	for c := 0; c < g.cfg.Clients; c++ {
		sock := g.host(c).MustUDPBind(g.cfg.BasePort + uint16(c))
		g.sim.Spawn(fmt.Sprintf("wl/udp-closed%d", c), func(p *sim.Proc) {
			defer func() { g.done++ }()
			buf := make([]byte, g.cfg.Payload)
			for p.Now() < end {
				seq := g.request(buf)
				g.inflight[seq] = p.Now()
				g.begin(seq, p.Now())
				sock.SendTo(g.cfg.Target, buf)
				timeout := g.cfg.Timeout
				attempts := 0
				for {
					dg, ok, _ := sock.RecvTimeout(p, timeout)
					if ok {
						g.noteRxWait(dg.Payload, dg.EnqueuedAt, p.Now())
						g.record(dg.Payload, p.Now())
						if rseq, rok := Seq(dg.Payload); rok && rseq == seq {
							break
						}
						// A stale response to an earlier retransmitted
						// request; keep waiting for the current one.
						continue
					}
					if attempts >= g.cfg.Retries {
						delete(g.inflight, seq)
						g.abandoned++
						if g.measuring {
							g.result.Lost++
						}
						g.cfg.Spans.Close(seq, trace.SpanLost, p.Now())
						break
					}
					// Retransmit the same sequence with doubled patience;
					// record() matches whichever copy answers first and
					// charges latency from the original send.
					attempts++
					if g.measuring {
						g.result.Retries++
					}
					sock.SendTo(g.cfg.Target, buf)
					timeout <<= 1
				}
			}
		})
	}
}

func (g *Generator) runUDPOpenLoop() {
	interval := time.Duration(float64(time.Second) / g.cfg.RatePerSec)
	end := g.endAt
	for c := 0; c < g.cfg.Clients; c++ {
		c := c
		sock := g.host(c).MustUDPBind(g.cfg.BasePort + uint16(c))
		// Sender at rate/clients each.
		g.sim.Spawn(fmt.Sprintf("wl/udp-open-tx%d", c), func(p *sim.Proc) {
			defer func() { g.done++ }()
			per := interval * time.Duration(g.cfg.Clients)
			// Stagger the senders so the aggregate is a smooth stream, not
			// periodic bursts of len(clients).
			p.Sleep(time.Duration(c) * interval)
			buf := make([]byte, g.cfg.Payload)
			for p.Now() < end {
				seq := g.request(buf)
				g.inflight[seq] = p.Now()
				g.begin(seq, p.Now())
				sock.SendTo(g.cfg.Target, buf)
				p.Sleep(g.gap(per))
			}
		})
		g.sim.Spawn(fmt.Sprintf("wl/udp-open-rx%d", c), func(p *sim.Proc) {
			for {
				dg := sock.Recv(p)
				g.noteRxWait(dg.Payload, dg.EnqueuedAt, p.Now())
				g.record(dg.Payload, p.Now())
			}
		})
	}
}

func (g *Generator) runTCP() {
	end := g.endAt
	for c := 0; c < g.cfg.Clients; c++ {
		c := c
		g.sim.Spawn(fmt.Sprintf("wl/tcp%d", c), func(p *sim.Proc) {
			defer func() { g.done++ }()
			conn, err := g.host(c).TCPDial(p, g.cfg.Target)
			if err != nil {
				return
			}
			buf := make([]byte, g.cfg.Payload)
			for p.Now() < end {
				seq := g.request(buf)
				g.inflight[seq] = p.Now()
				g.begin(seq, p.Now())
				if conn.Send(p, buf) != nil {
					return
				}
				msg, enq, ok, err := conn.RecvQueuedTimeout(p, g.cfg.Timeout)
				if err != nil {
					return
				}
				if !ok {
					delete(g.inflight, seq)
					g.abandoned++
					if g.measuring {
						g.result.Lost++
					}
					g.cfg.Spans.Close(seq, trace.SpanLost, p.Now())
					continue
				}
				g.noteRxWait(msg, enq, p.Now())
				g.record(msg, p.Now())
			}
		})
	}
}

// RunFor is a convenience that spawns the generator, advances the sim for
// the whole window (plus slack for stragglers), and returns the result.
func RunFor(s *sim.Sim, g *Generator) Result {
	res := g.Run()
	total := g.cfg.Warmup + g.cfg.Duration
	s.RunUntilCond(s.Now().Add(total+50*time.Millisecond), time.Millisecond, g.Done)
	return *res
}
