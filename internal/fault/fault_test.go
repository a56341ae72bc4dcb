package fault

import (
	"math"
	"testing"
	"time"

	"lynx/internal/sim"
)

func TestNilPlanInjectsNothing(t *testing.T) {
	var pl *Plan
	if pl.Enabled() {
		t.Fatal("nil plan enabled")
	}
	if fate := pl.Datagram(); fate != Deliver {
		t.Fatalf("nil Datagram = %v", fate)
	}
	if pl.TCPDelay() != 0 {
		t.Fatal("nil TCPDelay non-zero")
	}
	if pl.RDMAError() {
		t.Fatal("nil RDMAError fired")
	}
	if pl.StallRemaining("gpu0", 0, 0) != 0 {
		t.Fatal("nil StallRemaining non-zero")
	}
	if pl.Stats() != (Stats{}) {
		t.Fatal("nil Stats non-zero")
	}
}

func TestZeroConfigDisabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	if !(Config{DropRate: 0.1}).Enabled() {
		t.Fatal("drop config disabled")
	}
	if !(Config{Stalls: []Stall{{Accel: "gpu0"}}}).Enabled() {
		t.Fatal("stall config disabled")
	}
}

func TestValidateProbabilities(t *testing.T) {
	for _, ok := range []Config{{}, {DropRate: 1}, {DupRate: 0.5, RDMAErrRate: 0.01}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
	for _, bad := range []Config{{DropRate: 2}, {DropRate: -0.5}, {DupRate: math.NaN()}, {RDMAErrRate: 1.5}, {RDMAErrRate: -1}} {
		if bad.Validate() == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// The plan's stream is its own: identical configs draw identical fates.
func TestDeterministicDraws(t *testing.T) {
	cfg := Config{Seed: 9, DropRate: 0.1, DupRate: 0.05, RDMAErrRate: 0.2}
	a, b := NewPlan(cfg), NewPlan(cfg)
	for i := 0; i < 10000; i++ {
		fa, fb := a.Datagram(), b.Datagram()
		ta, tb := a.TCPDelay(), b.TCPDelay()
		ea, eb := a.RDMAError(), b.RDMAError()
		if fa != fb || ta != tb || ea != eb {
			t.Fatalf("draw %d diverged: (%v,%v,%v) vs (%v,%v,%v)", i, fa, ta, ea, fb, tb, eb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %v vs %v", a.Stats(), b.Stats())
	}
}

// Empirical rates must track the configured probabilities.
func TestDatagramRates(t *testing.T) {
	pl := NewPlan(Config{Seed: 3, DropRate: 0.1, DupRate: 0.05, RDMAErrRate: 0.2})
	const n = 200000
	for i := 0; i < n; i++ {
		pl.Datagram()
		if d := pl.TCPDelay(); d != 0 && d != TCPRetransmit {
			t.Fatalf("TCP delay %v, want 0 or %v", d, TCPRetransmit)
		}
		pl.RDMAError()
	}
	st := pl.Stats()
	near := func(name string, got uint64, want float64) {
		frac := float64(got) / n
		if frac < want*0.9 || frac > want*1.1 {
			t.Errorf("%s rate %.4f, want ~%.4f", name, frac, want)
		}
	}
	near("drop", st.DatagramsDropped, 0.1)
	// Dup is drawn only for non-dropped datagrams.
	near("dup", st.DatagramsDuplicated, 0.05*0.9)
	near("tcp", st.TCPDelays, 0.1)
	near("rdma", st.RDMAErrors, 0.2)
}

func TestStallWindows(t *testing.T) {
	pl := NewPlan(Config{Stalls: []Stall{
		{Accel: "gpu0", Queue: 1, At: 10 * time.Millisecond, For: 5 * time.Millisecond},
		{Accel: "vca0", Queue: -1, At: 0, For: time.Millisecond},
	}})
	at := func(d time.Duration) sim.Time { return sim.Time(0).Add(d) }
	if got := pl.StallRemaining("gpu0", 1, at(12*time.Millisecond)); got != 3*time.Millisecond {
		t.Fatalf("inside window: %v, want 3ms", got)
	}
	if got := pl.StallRemaining("gpu0", 1, at(15*time.Millisecond)); got != 0 {
		t.Fatalf("window end is exclusive: %v", got)
	}
	if got := pl.StallRemaining("gpu0", 0, at(12*time.Millisecond)); got != 0 {
		t.Fatalf("other queue stalled: %v", got)
	}
	if got := pl.StallRemaining("gpu1", 1, at(12*time.Millisecond)); got != 0 {
		t.Fatalf("other accel stalled: %v", got)
	}
	// Queue -1 matches every queue of the accelerator.
	for q := 0; q < 4; q++ {
		if got := pl.StallRemaining("vca0", q, at(100*time.Microsecond)); got != 900*time.Microsecond {
			t.Fatalf("vca queue %d: %v, want 900µs", q, got)
		}
	}
	if pl.Stats().StallHits == 0 {
		t.Fatal("stall hits not counted")
	}
}
