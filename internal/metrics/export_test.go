package metrics

import (
	"math"
	"sort"
	"time"
)

// Total reports samples ever added, including evicted ones.
func (s *Series) Total() uint64 { return s.total }

// Last returns the most recent sample (zero value when empty).
func (s *Series) Last() SeriesPoint {
	if len(s.ring) == 0 {
		return SeriesPoint{}
	}
	i := s.next - 1
	if i < 0 {
		i = len(s.ring) - 1
	}
	return s.ring[i]
}

// Min returns the smallest recorded value (0 if empty).
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Exact keeps every sample for tests that need exact quantiles to validate
// Histogram accuracy. Not for high-volume use.
type Exact struct {
	vals   []time.Duration
	sorted bool
}

// Record appends one sample.
func (e *Exact) Record(d time.Duration) {
	e.vals = append(e.vals, d)
	e.sorted = false
}

// Quantile returns the exact q-quantile (nearest-rank).
func (e *Exact) Quantile(q float64) time.Duration {
	if len(e.vals) == 0 {
		return 0
	}
	if !e.sorted {
		sort.Slice(e.vals, func(i, j int) bool { return e.vals[i] < e.vals[j] })
		e.sorted = true
	}
	rank := int(math.Ceil(q*float64(len(e.vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(e.vals) {
		rank = len(e.vals) - 1
	}
	return e.vals[rank]
}

// Count reports the number of samples.
func (e *Exact) Count() int { return len(e.vals) }
