package mqueue_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lynx/internal/accel"
	"lynx/internal/check"
	"lynx/internal/fabric"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// form is one way to run a serving threadblock over an AccelQueue.
type form int

const (
	// reference is a LaunchPersistent Proc loop over the straight-line
	// bodies of reference_test.go.
	reference form = iota
	// adapters is the same loop over the Proc forms Recv and Send.
	adapters
	// served is GPU.Serve: one Task per queue over RecvT and SendT.
	served
)

func (f form) String() string { return [...]string{"reference", "adapters", "served"}[f] }

// diffCase is one scenario of the differential test: the queue geometry, the
// kernel's short-request cutoff and service time, the fault plan's stall
// windows, the SNIC-side script, and how long to run before shutting down.
type diffCase struct {
	name    string
	slots   int
	minLen  int
	service time.Duration
	stalls  []fault.Stall
	script  func(d *driver)
	until   time.Duration
	// expect checks that the scenario exercised what it is named for.
	expect func(o outcome) error
}

// outcome is everything one run exposes.
type outcome struct {
	// trace holds, for every instant at which events ran, the number of
	// events executed by its end: the timestamps of the whole event
	// sequence.
	trace []string
	// notes are the driver's and the kernel handler's observations, each
	// tagged with the ordinal of the event it ran in, which pins the order
	// of those events within their instant.
	notes          []string
	executed       uint64
	spans          []trace.Span
	checks         string
	received, sent uint64
	stallHits      uint64
	busy           time.Duration
}

// driver is the SNIC side of one queue: it pushes requests whose first 8
// bytes are a fresh span id and drains the responses.
type driver struct {
	p     *sim.Proc
	q     *mqueue.Queue
	spans *trace.SpanTable
	note  func(format string, args ...any)
	out   []mqueue.TxMsg
	id    uint64
}

func (d *driver) request(tail string) []byte {
	d.id++
	d.spans.Begin(d.id, d.p.Now())
	return append(binary.LittleEndian.AppendUint64(nil, d.id), tail...)
}

// push delivers one request and waits for its write to complete.
func (d *driver) push(tail string) {
	slot, err := d.q.Push(d.p, d.request(tail), 0)
	d.note("push %d: slot %d, %v", d.id, slot, err)
}

// burst posts requests back to back without waiting for their writes, so
// they land while the kernel is still serving the first.
func (d *driver) burst(tails ...string) {
	for _, tail := range tails {
		slot, err := d.q.PushAsync(d.p, d.request(tail), 0)
		d.note("post %d: slot %d, %v", d.id, slot, err)
	}
}

// drain pops every response the TX ring holds and frees the slots.
func (d *driver) drain() {
	d.q.Refresh(d.p)
	n := d.q.PopTxMany(d.p, len(d.out), d.out)
	for _, m := range d.out[:n] {
		d.note("response corr %d %q", m.Corr, m.Payload)
	}
	d.q.CommitTx(d.p)
	d.note("drained %d", n)
}

// runDiff runs c with one serving threadblock in form f and collects what
// the run exposes. It steps the simulation one nanosecond at a time to see
// the instant of every event, then shuts down with the threadblock parked.
func runDiff(t *testing.T, c diffCase, f form) outcome {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	s := sim.New(sim.Config{Seed: 5})
	p := model.Default()
	fab := fabric.New()
	g := accel.NewGPU(s, &p, fab, nil, "gpu0", accel.GPUConfig{Model: accel.K40m})
	nic := fab.AddDevice("nic", nil)
	fab.Connect(nic, g.Device(), p.PCIeLatency, p.PCIeBandwidth)
	qp := rdma.NewEngine(s, &p, fab, nic).CreateQP(g.Device(), rdma.QPConfig{Kind: rdma.RC})
	spans, ck := trace.NewSpanTable(64), check.New()
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: c.slots, SlotSize: 64, Check: ck, Spans: spans}
	region := g.Device().Mem.MustAlloc("mq", cfg.Footprint())
	snicQ, err := mqueue.New(region, 0, cfg, qp)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(fault.Config{Stalls: c.stalls})
	prof := g.Profile()
	prof.Spans, prof.Check, prof.Faults = spans, ck, plan
	aq, err := mqueue.Attach(region, 0, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}

	var o outcome
	note := func(format string, args ...any) {
		o.notes = append(o.notes, fmt.Sprintf("%v #%d ", s.Now(), s.Executed())+fmt.Sprintf(format, args...))
	}
	// The response keeps the request's span id up front.
	handle := func(req, out []byte) []byte {
		note("serve %q", req)
		return append(append(out, req...), '!')
	}
	if f == served {
		err = g.Serve(s, []*mqueue.AccelQueue{aq}, c.minLen, c.service, handle)
	} else {
		err = g.LaunchPersistent(s, 1, func(tb *accel.TB) {
			var out []byte
			for {
				var m mqueue.Msg
				if f == reference {
					m = aq.RefRecv(tb.Proc())
				} else {
					m = aq.Recv(tb.Proc())
				}
				if len(m.Payload) < c.minLen {
					continue
				}
				if c.service > 0 {
					tb.Compute(c.service)
				}
				out = handle(m.Payload, out[:0])
				var err error
				if f == reference {
					err = aq.RefSendErr(tb.Proc(), uint16(m.Slot), out, 0)
				} else {
					err = aq.Send(tb.Proc(), uint16(m.Slot), out)
				}
				if err != nil {
					return
				}
			}
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("snic", func(p *sim.Proc) {
		c.script(&driver{p: p, q: snicQ, spans: spans, note: note, out: make([]mqueue.TxMsg, c.slots)})
	})

	var last uint64
	for at := sim.Time(0); at <= sim.Time(c.until); at++ {
		s.RunUntil(at)
		if n := s.Executed(); n != last {
			o.trace = append(o.trace, fmt.Sprintf("%v:%d", at, n))
			last = n
		}
	}
	o.executed = s.Executed()
	o.spans = spans.Spans()
	o.received, o.sent, _ = aq.Stats()
	o.stallHits = plan.Stats().StallHits
	o.busy = g.BusyTime()
	s.Shutdown()
	o.checks = ck.Finalize().String()
	if live := s.Live(); live != 0 {
		t.Errorf("%s/%s: %d processes live after Shutdown", c.name, f, live)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%s/%s: %d goroutines after Shutdown, %d before the run", c.name, f, n, goroutines)
	}
	return o
}

// firstDiff describes the first line where two logs differ.
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// span returns the span of request id.
func (o outcome) span(id uint64) trace.Span {
	for _, sp := range o.spans {
		if sp.ID == id {
			return sp
		}
	}
	return trace.Span{}
}

// summary formats the run's scalar results.
func (o outcome) summary() string {
	return fmt.Sprintf("executed %d, received %d, sent %d, stall hits %d, busy %v, checks %q",
		o.executed, o.received, o.sent, o.stallHits, o.busy, o.checks)
}

// counts checks the requests received and responses sent.
func (o outcome) counts(received, sent uint64) error {
	if o.received != received || o.sent != sent {
		return fmt.Errorf("received %d, sent %d; want %d and %d", o.received, o.sent, received, sent)
	}
	return nil
}

// TestTaskFormsMatchReference holds the task-form receive and send, run as
// Serve's threadblocks and through the Proc adapters, to the straight-line
// Proc reference: every scenario produces the same event instants and
// counts, the same ordered observations and responses, the same spans and
// checker report, and shuts down clean with the threadblock parked.
func TestTaskFormsMatchReference(t *testing.T) {
	cases := []diffCase{{
		// The first request finds the ring empty (a gate wait); a short one
		// is dropped; the burst's later requests are already waiting when
		// the kernel comes back for them.
		name: "gate-and-waiting", slots: 8, minLen: 12,
		script: func(d *driver) {
			d.p.Sleep(5 * time.Microsecond)
			d.push("first")
			if _, err := d.q.Push(d.p, []byte("short"), 0); err != nil {
				d.note("short: %v", err)
			}
			d.burst("second", "third", "fourth")
			d.p.Sleep(20 * time.Microsecond)
			d.drain()
		},
		until:  60 * time.Microsecond,
		expect: func(o outcome) error { return o.counts(5, 4) },
	}, {
		// Four responses fill the TX ring; the fifth waits for a free slot
		// until the SNIC drains, and books that wait on its span.
		name: "tx-full", slots: 4,
		script: func(d *driver) {
			d.burst("a", "b", "c", "d")
			d.p.Sleep(10 * time.Microsecond)
			d.push("e")
			d.p.Sleep(30 * time.Microsecond)
			d.drain()
			d.p.Sleep(10 * time.Microsecond)
			d.drain()
		},
		until: 100 * time.Microsecond,
		expect: func(o outcome) error {
			if sp := o.span(5); sp.WaitIn(trace.PhaseExec) <= 0 {
				return fmt.Errorf("request 5 booked no free-slot wait (span %+v)", sp)
			}
			return o.counts(5, 5)
		},
	}, {
		// A stall window covers the first receive, another the send that
		// follows the compute.
		name: "stalls", slots: 8, service: 20 * time.Microsecond,
		stalls: []fault.Stall{
			{Accel: "gpu0", Queue: 0, At: 0, For: 15 * time.Microsecond},
			{Accel: "gpu0", Queue: 0, At: 35 * time.Microsecond, For: 30 * time.Microsecond},
		},
		script: func(d *driver) {
			d.p.Sleep(20 * time.Microsecond)
			d.push("stalled")
			d.p.Sleep(60 * time.Microsecond)
			d.drain()
			d.push("after")
			d.p.Sleep(40 * time.Microsecond)
			d.drain()
		},
		until: 200 * time.Microsecond,
		expect: func(o outcome) error {
			sp := o.span(1)
			if sent, _ := sp.At(trace.StageAccelSent); o.stallHits < 2 || sent < sim.Time(65*time.Microsecond) {
				return fmt.Errorf("%d stall hits, request 1 sent at %v; want the send held to the window's end", o.stallHits, sent)
			}
			return o.counts(2, 2)
		},
	}, {
		// Every served request charges the service time.
		name: "service", slots: 8, service: 10 * time.Microsecond,
		script: func(d *driver) {
			d.burst("x", "y", "z")
			d.p.Sleep(50 * time.Microsecond)
			d.drain()
		},
		until: 80 * time.Microsecond,
		expect: func(o outcome) error {
			if o.busy != 30*time.Microsecond {
				return fmt.Errorf("busy %v, want 30µs", o.busy)
			}
			return nil
		},
	}, {
		// Shut down while the threadblock waits for a free TX slot and the
		// driver sleeps.
		name: "shutdown-parked", slots: 4,
		script: func(d *driver) {
			d.burst("a", "b", "c", "d")
			d.p.Sleep(10 * time.Microsecond)
			d.push("e")
			d.p.Sleep(time.Second)
		},
		until:  40 * time.Microsecond,
		expect: func(o outcome) error { return o.counts(5, 4) },
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := runDiff(t, c, reference)
			if err := c.expect(ref); err != nil {
				t.Fatalf("the scenario does not exercise what it names: %v", err)
			}
			for _, f := range []form{adapters, served} {
				got := runDiff(t, c, f)
				if !reflect.DeepEqual(got.trace, ref.trace) {
					t.Errorf("%s: event instants differ from the reference at %s", f, firstDiff(got.trace, ref.trace))
				}
				if !reflect.DeepEqual(got.notes, ref.notes) {
					t.Errorf("%s: observations differ from the reference at %s", f, firstDiff(got.notes, ref.notes))
				}
				if !reflect.DeepEqual(got.spans, ref.spans) {
					t.Errorf("%s: spans %+v, the reference %+v", f, got.spans, ref.spans)
				}
				if got.summary() != ref.summary() {
					t.Errorf("%s: %s; the reference %s", f, got.summary(), ref.summary())
				}
			}
		})
	}
}
