// Package metrics provides the measurement primitives used by every
// experiment in the repository: log-bucketed latency histograms with
// percentile queries, throughput counters, and small series helpers for
// emitting paper-style tables.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram is a log-linear latency histogram in the spirit of HdrHistogram:
// values are bucketed with bounded relative error (~= 1/subBuckets), so
// percentile queries are accurate to a few percent across nanoseconds..hours
// while using constant memory.
type Histogram struct {
	counts [nBuckets * subBuckets]uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	subBucketBits = 5 // 32 sub-buckets per power of two: <= ~3% relative error
	subBuckets    = 1 << subBucketBits
	nBuckets      = 64 - subBucketBits
)

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// index maps a value to its bucket. Values below subBuckets get exact
// buckets; above that, the top subBucketBits+1 significant bits select a
// bucket, bounding relative error by 1/subBuckets.
func index(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	k := bits.Len64(uint64(v))   // number of significant bits, >= subBucketBits+1
	exp := k - subBucketBits - 1 // shift so the mantissa has subBucketBits+1 bits
	sub := int(v >> uint(exp))   // in [subBuckets, 2*subBuckets)
	return (exp+1)*subBuckets + (sub - subBuckets)
}

// bucketMid returns a representative value for bucket i (its upper edge).
func bucketMid(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := (i - subBuckets) / subBuckets
	sub := int64(subBuckets + (i-subBuckets)%subBuckets)
	return (sub+1)<<uint(exp) - 1
}

// Record adds one observation of duration d.
func (h *Histogram) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN adds n observations of duration d.
func (h *Histogram) RecordN(d time.Duration, n uint64) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[index(v)] += n
	h.total += n
	h.sum += float64(v) * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the average of recorded values.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Sum returns the total of all recorded values (exact, not re-bucketed).
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Max returns the largest recorded value.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the value at quantile q in [0,1], e.g. 0.99 for p99.
// The answer carries the histogram's bucket resolution (~3% relative error),
// except at the extremes: q<=0 is exactly Min and q>=1 exactly Max, so the
// bucket upper-edge representative can never push an extreme quantile past
// the recorded range.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Median is Quantile(0.5).
func (h *Histogram) Median() time.Duration { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// P90 is Quantile(0.90).
func (h *Histogram) P90() time.Duration { return h.Quantile(0.90) }

// P999 is Quantile(0.999), the far-tail quantile the attribution reports use.
func (h *Histogram) P999() time.Duration { return h.Quantile(0.999) }

// String summarizes the histogram.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%v p50=%v p90=%v p99=%v max=%v}",
		h.total, h.Mean(), h.Median(), h.P90(), h.P99(), h.Max())
}
