package metrics

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Mean(), 50500*time.Nanosecond; absDiff(got, want) > want/20 {
		t.Fatalf("mean = %v, want ~%v", got, want)
	}
	if h.Min() != time.Microsecond {
		t.Fatalf("min = %v", h.Min())
	}
	if h.Max() != 100*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
	p50 := h.Median()
	if absDiff(p50, 50*time.Microsecond) > 5*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
}

func absDiff(a, b time.Duration) time.Duration {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative not clamped: %v", h)
	}
}

// Property: histogram quantiles stay within ~4% relative error (plus one
// bucket of absolute slack) of exact quantiles for arbitrary sample sets.
func TestHistogramQuantileAccuracyProperty(t *testing.T) {
	prop := func(raw []uint32, qseed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		e := &Exact{}
		for _, r := range raw {
			d := time.Duration(r)
			h.Record(d)
			e.Record(d)
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, float64(qseed%101) / 100} {
			got := float64(h.Quantile(q))
			want := float64(e.Quantile(q))
			tol := want*0.04 + 2
			if math.Abs(got-want) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileLargeValues(t *testing.T) {
	h := NewHistogram()
	e := &Exact{}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.Int64N(int64(10 * time.Second)))
		h.Record(d)
		e.Record(d)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, want := h.Quantile(q), e.Quantile(q)
		if absDiff(got, want) > want/20 {
			t.Errorf("q=%v: got %v want %v", q, got, want)
		}
	}
}

func TestExactQuantile(t *testing.T) {
	e := &Exact{}
	for i := 100; i >= 1; i-- { // reverse order: exercises the sort
		e.Record(time.Duration(i))
	}
	if e.Quantile(0.5) != 50 {
		t.Fatalf("p50 = %v", e.Quantile(0.5))
	}
	if e.Quantile(1.0) != 100 {
		t.Fatalf("p100 = %v", e.Quantile(1.0))
	}
	if e.Quantile(0.0) != 1 {
		t.Fatalf("p0 = %v", e.Quantile(0.0))
	}
	if e.Count() != 100 {
		t.Fatal("count")
	}
}

func TestIndexMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1 << 20, 1<<40 + 12345, math.MaxInt64 / 2} {
		i := index(v)
		if i < prev {
			t.Fatalf("index not monotonic at %d", v)
		}
		prev = i
		if m := bucketMid(i); m < v/2 || (v > 64 && float64(m) > float64(v)*1.1) {
			t.Fatalf("bucketMid(%d)=%d not near %d", i, m, v)
		}
	}
}

func TestPercentileShorthandsAndString(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if p90 := h.P90(); absDiff(p90, 900*time.Microsecond) > 40*time.Microsecond {
		t.Fatalf("p90 = %v", p90)
	}
	if p99 := h.P99(); absDiff(p99, 990*time.Microsecond) > 40*time.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	s := h.String()
	if !strings.Contains(s, "n=1000") || !strings.Contains(s, "p99=") {
		t.Fatalf("string %q", s)
	}
	if NewHistogram().String() != "histogram{empty}" {
		t.Fatal("empty string form")
	}
	if NewHistogram().Min() != 0 {
		t.Fatal("empty min")
	}
}
