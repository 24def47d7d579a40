package stats

import (
	"fmt"
	"math"
	"sync"
)

// A positive float64 orders like its bit pattern — 11 bits of biased
// exponent, then 52 of mantissa — so shifted right by histShift it is
// its bucket's number plus histBase.
const (
	histSubBits            = 4 // 16 buckets per power of two
	histMinExp, histMaxExp = -24, 24
	histBuckets            = (histMaxExp - histMinExp) << histSubBits
	histShift              = 52 - histSubBits
	histBase               = (1023 + histMinExp) << histSubBits
)

// Histogram accumulates observations for latency-style summaries in
// constant memory (about 6 KB): counts in 16 equal-width buckets per
// power of two from 2^-24 to 2^24 (as milliseconds, 60 ps to 4.7 h),
// the end buckets taking what lies beyond, beside an exact count, sum,
// minimum and maximum. Count, Min, Max and Mean of its Summary are
// exact; a quantile is the midpoint of the bucket holding the
// observation nearest rank picks, clamped to [Min, Max], and so within
// 1/32 of it. Observe and Summary allocate nothing and cost the same
// after a billion observations as after ten. Safe for concurrent use;
// the zero value is empty.
type Histogram struct {
	mu       sync.Mutex
	count    uint64
	sum      float64
	min, max float64
	buckets  [histBuckets]uint64
}

// bucketOf returns the bucket v counts in.
func bucketOf(v float64) int {
	if !(v > 0) { // zero, negatives and NaN
		return 0
	}
	return min(max(int(math.Float64bits(v)>>histShift)-histBase, 0), histBuckets-1)
}

// bucketMid returns the midpoint of bucket i: its lower bound with the
// next mantissa bit set.
func bucketMid(i int) float64 {
	return math.Float64frombits(uint64(i+histBase)<<histShift | 1<<(histShift-1))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := bucketOf(v)
	h.mu.Lock()
	if h.count == 0 {
		h.min, h.max = v, v
	}
	h.min, h.max = min(h.min, v), max(h.max, v)
	h.count++
	h.sum += v
	h.buckets[i]++
	h.mu.Unlock()
}

// HistogramSummary is the JSON-friendly digest of a Histogram.
type HistogramSummary struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary returns the digest of everything observed so far; one pass
// over the bucket counts reads the quantiles by nearest rank.
func (h *Histogram) Summary() HistogramSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistogramSummary{}
	}
	n := float64(h.count)
	ranks := [...]float64{math.Ceil(0.50 * n), math.Ceil(0.90 * n), math.Ceil(0.99 * n)}
	var q [len(ranks)]float64
	next, seen := 0, uint64(0)
	for i := 0; next < len(ranks); i++ {
		seen += h.buckets[i]
		for ; next < len(ranks) && float64(seen) >= ranks[next]; next++ {
			q[next] = min(max(bucketMid(i), h.min), h.max)
		}
	}
	return HistogramSummary{Count: int(h.count), Min: h.min, Mean: h.sum / n, P50: q[0], P90: q[1], P99: q[2], Max: h.max}
}

// String renders the summary on one line (values interpreted as
// milliseconds, the harness's unit).
func (s HistogramSummary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%.2fms p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms mean=%.2fms",
		s.Count, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean)
}
