// Package bench holds the repository's benchmark statistics: cmd/benchcmp's
// go-test output parser, median and Mann-Whitney U machinery and comparison
// table, the repository's one comparator of go-benchmark samples; and the
// paired-run verdict cmd/abcmp applies to `make ab`'s alternating runs of
// bench/perf.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Key identifies one metric series of one benchmark.
type Key struct {
	Bench  string
	Metric string
}

// MetricOrder is the fixed per-benchmark metric order of every rendered
// comparison; deterministic output depends on it.
var MetricOrder = []string{"ns/op", "events/sec", "B/op", "allocs/op"}

// Parse reads go-test benchmark output: lines of the form
//
//	BenchmarkName-8  1234  5678 ns/op  90 events/sec  0 B/op  0 allocs/op
//
// and returns metric samples keyed by (name, unit) plus the benchmark names
// in first-appearance order. The -N GOMAXPROCS suffix is stripped so files
// from different machines still line up.
func Parse(r io.Reader) (map[Key][]float64, []string, error) {
	samples := make(map[Key][]float64)
	var order []string
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if !seen[name] {
			seen[name] = true
			order = append(order, name)
		}
		// fields[1] is the iteration count; after that, (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			k := Key{Bench: name, Metric: fields[i+1]}
			samples[k] = append(samples[k], v)
		}
	}
	return samples, order, sc.Err()
}

// ParseFile is Parse over a file.
func ParseFile(path string) (map[Key][]float64, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Median returns the sample median (NaN for an empty slice).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MannWhitneyP returns the two-sided p-value of the Mann-Whitney U test via
// the normal approximation with tie correction — adequate for the n≈10
// sample counts benchmark comparisons use (and the same default benchstat
// falls back to at larger n).
func MannWhitneyP(a, b []float64) float64 {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks with tie accounting.
	ranks := make([]float64, len(all))
	tieTerm := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		r := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = r
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	r1 := 0.0
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u := r1 - n1*(n1+1)/2
	mu := n1 * n2 / 2
	n := n1 + n2
	sigma2 := n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		// All values identical: no evidence of difference.
		return 1
	}
	z := (u - mu) / math.Sqrt(sigma2)
	// Continuity correction toward the mean.
	if z > 0 {
		z -= 0.5 / math.Sqrt(sigma2)
	} else if z < 0 {
		z += 0.5 / math.Sqrt(sigma2)
	}
	return 2 * (1 - stdNormalCDF(math.Abs(z)))
}

// Quartiles returns the first and third quartiles of xs, interpolated
// between order statistics at positions (n+1)/4 and 3(n+1)/4 (1-based,
// clamped to the sample), as Python's statistics.quantiles gives them by
// default. Both are NaN for an empty slice.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		h := min(max(q*float64(len(s)+1), 1), float64(len(s))) - 1
		i := int(h)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.75)
}

// minPairs is the fewest pairs a gain may be claimed on.
const minPairs = 10

// Paired is one metric of alternating runs of a parent and a change: run i
// of each side ran back to back, in alternating order.
type Paired struct {
	OldMedian, NewMedian float64
	OldIQR               float64 // Q3 - Q1 of the parent's runs
	Wins, Pairs          int     // pairs the change won; ties count for neither side
	LowerBetter          bool
}

// ComparePairs pairs old[i] with new[i] (the shorter side sets the count);
// lowerBetter gives the metric's direction.
func ComparePairs(old, new []float64, lowerBetter bool) Paired {
	n := min(len(old), len(new))
	old, new = old[:n], new[:n]
	q1, q3 := Quartiles(old)
	p := Paired{OldMedian: Median(old), NewMedian: Median(new), OldIQR: q3 - q1, Pairs: n, LowerBetter: lowerBetter}
	for i := range old {
		if p.better(new[i]-old[i]) > 0 {
			p.Wins++
		}
	}
	return p
}

// better signs a change's difference d so that positive is better.
func (p Paired) better(d float64) float64 {
	if p.LowerBetter {
		return -d
	}
	return d
}

// Gain reports whether the runs show the change better, by the rule the
// repository claims a gain with: at least minPairs pairs, the change winning
// at least nine tenths of them, and its median better than the parent's by
// more than the parent's interquartile range.
func (p Paired) Gain() bool {
	return p.Pairs >= minPairs && 10*p.Wins >= 9*p.Pairs && p.better(p.NewMedian-p.OldMedian) > p.OldIQR
}

func stdNormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// Alpha is the two-sided significance level a delta must clear before it is
// reported as real rather than "~" noise.
const Alpha = 0.05

// Row is one (benchmark, metric) line of the comparison table. A median is
// nil when its side is absent (a new or removed benchmark); DeltaPct, PValue
// and Significant are set only when both sides are present.
type Row struct {
	Benchmark            string
	Metric               string
	OldMedian, NewMedian *float64
	DeltaPct, PValue     float64
	Significant          bool
}

// Comparison is a full two-file comparison, rendered by Table.
type Comparison struct {
	Rows []Row
}

// Compare builds the row set for two parsed sample maps. Row order is stable:
// benchmarks as they appear in oldOrder, then new-only ones, with MetricOrder
// within each benchmark. Rows with only an old side (removed benchmarks) are
// included with a nil NewMedian.
func Compare(oldS, newS map[Key][]float64, oldOrder, newOrder []string) *Comparison {
	benches := append([]string(nil), oldOrder...)
	seen := make(map[string]bool, len(oldOrder))
	for _, b := range oldOrder {
		seen[b] = true
	}
	for _, b := range newOrder {
		if !seen[b] {
			benches = append(benches, b)
		}
	}
	c := &Comparison{}
	for _, b := range benches {
		for _, m := range MetricOrder {
			k := Key{Bench: b, Metric: m}
			o, haveOld := oldS[k]
			n, haveNew := newS[k]
			switch {
			case haveOld && haveNew:
				om, nm := Median(o), Median(n)
				p := MannWhitneyP(o, n)
				delta := 0.0
				if om != 0 {
					delta = (nm - om) / om * 100
				}
				c.Rows = append(c.Rows, Row{
					Benchmark: b, Metric: m,
					OldMedian: ptr(om), NewMedian: ptr(nm),
					DeltaPct: delta, PValue: p, Significant: p < Alpha,
				})
			case haveNew:
				c.Rows = append(c.Rows, Row{Benchmark: b, Metric: m, NewMedian: ptr(Median(n))})
			case haveOld:
				c.Rows = append(c.Rows, Row{Benchmark: b, Metric: m, OldMedian: ptr(Median(o))})
			}
		}
	}
	return c
}

func ptr(v float64) *float64 { return &v }

// Table renders the comparison as the aligned text table cmd/benchcmp prints:
// medians, delta ("~" when insignificant), p-value.
func (c *Comparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %-11s %14s %14s %9s %8s\n", "benchmark", "metric", "old median", "new median", "delta", "p")
	for _, r := range c.Rows {
		switch {
		case r.OldMedian != nil && r.NewMedian != nil:
			ds := "~"
			if r.Significant {
				ds = fmt.Sprintf("%+.1f%%", r.DeltaPct)
			}
			fmt.Fprintf(&b, "%-44s %-11s %14.1f %14.1f %9s %8.3f\n",
				r.Benchmark, r.Metric, *r.OldMedian, *r.NewMedian, ds, r.PValue)
		case r.NewMedian != nil:
			fmt.Fprintf(&b, "%-44s %-11s %14s %14.1f %9s %8s\n",
				r.Benchmark, r.Metric, "(new)", *r.NewMedian, "", "")
		case r.OldMedian != nil:
			fmt.Fprintf(&b, "%-44s %-11s %14.1f %14s %9s %8s\n",
				r.Benchmark, r.Metric, *r.OldMedian, "(gone)", "", "")
		}
	}
	return b.String()
}
