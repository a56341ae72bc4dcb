package bench

import (
	"math"
	"strings"
	"testing"
)

const oldOutput = `goos: linux
BenchmarkSimEngine/echo-8   1000   200.0 ns/op   5000000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-8   1000   201.0 ns/op   4990000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-8   1000   199.0 ns/op   5010000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-8   1000   200.0 ns/op   5000000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-8   1000   202.0 ns/op   4980000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/gone-8   1000   100.0 ns/op
PASS
`

const newOutput = `BenchmarkSimEngine/echo-16   1000   300.0 ns/op   4000000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-16   1000   301.0 ns/op   3990000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-16   1000   299.0 ns/op   4010000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-16   1000   300.0 ns/op   4000000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/echo-16   1000   302.0 ns/op   3980000 events/sec   0 B/op   0 allocs/op
BenchmarkSimEngine/fresh-16  1000   50.0 ns/op
`

func TestParseStripsGOMAXPROCSSuffix(t *testing.T) {
	samples, order, err := Parse(strings.NewReader(oldOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "BenchmarkSimEngine/echo" || order[1] != "BenchmarkSimEngine/gone" {
		t.Fatalf("order = %v", order)
	}
	k := Key{Bench: "BenchmarkSimEngine/echo", Metric: "ns/op"}
	if got := samples[k]; len(got) != 5 || got[0] != 200 {
		t.Fatalf("echo ns/op samples = %v", got)
	}
	if got := samples[Key{Bench: "BenchmarkSimEngine/echo", Metric: "events/sec"}]; len(got) != 5 {
		t.Fatalf("events/sec samples = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := Median(nil); !math.IsNaN(m) {
		t.Fatalf("empty median = %v, want NaN", m)
	}
	// Median must not mutate its argument.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Fatal("Median sorted the caller's slice")
	}
}

func TestMannWhitneyP(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := MannWhitneyP(same, same); p < 0.99 {
		t.Fatalf("identical samples p = %v, want ~1", p)
	}
	a := []float64{100, 101, 102, 99, 100, 101, 100, 99, 101, 100}
	b := []float64{130, 131, 132, 129, 130, 131, 130, 129, 131, 130}
	if p := MannWhitneyP(a, b); p >= Alpha {
		t.Fatalf("disjoint samples p = %v, want < %v", p, Alpha)
	}
	if p := MannWhitneyP(nil, a); p != 1 {
		t.Fatalf("empty side p = %v, want 1", p)
	}
	// All values equal: zero variance must not divide by zero.
	flat := []float64{5, 5, 5}
	if p := MannWhitneyP(flat, flat); p != 1 {
		t.Fatalf("zero-variance p = %v, want 1", p)
	}
}

func TestCompareRowOrderAndSides(t *testing.T) {
	oldS, oldOrder, _ := Parse(strings.NewReader(oldOutput))
	newS, newOrder, _ := Parse(strings.NewReader(newOutput))
	c := Compare(oldS, newS, oldOrder, newOrder)
	// Old-order benchmarks first, then new-only; MetricOrder within each.
	var got []string
	for _, r := range c.Rows {
		got = append(got, r.Benchmark+" "+r.Metric)
	}
	want := []string{
		"BenchmarkSimEngine/echo ns/op",
		"BenchmarkSimEngine/echo events/sec",
		"BenchmarkSimEngine/echo B/op",
		"BenchmarkSimEngine/echo allocs/op",
		"BenchmarkSimEngine/gone ns/op",
		"BenchmarkSimEngine/fresh ns/op",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("row order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	rows := make(map[string]Row)
	for _, r := range c.Rows {
		rows[r.Benchmark+" "+r.Metric] = r
	}
	echo := rows["BenchmarkSimEngine/echo ns/op"]
	if echo.OldMedian == nil || echo.NewMedian == nil || *echo.OldMedian != 200 || *echo.NewMedian != 300 {
		t.Fatalf("echo medians = %+v", echo)
	}
	if !echo.Significant || echo.PValue >= Alpha {
		t.Fatalf("50%% move on disjoint samples not significant: %+v", echo)
	}
	gone := rows["BenchmarkSimEngine/gone ns/op"]
	if gone.NewMedian != nil || gone.OldMedian == nil {
		t.Fatalf("removed benchmark row = %+v", gone)
	}
	fresh := rows["BenchmarkSimEngine/fresh ns/op"]
	if fresh.OldMedian != nil || fresh.NewMedian == nil {
		t.Fatalf("new benchmark row = %+v", fresh)
	}
	// Table marks both one-sided rows and the significant move.
	tbl := c.Table()
	if !strings.Contains(tbl, "(gone)") || !strings.Contains(tbl, "(new)") || !strings.Contains(tbl, "+50.0%") {
		t.Fatalf("table:\n%s", tbl)
	}
}
