package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear, the layout HDR-style recorders use:
// values below 2^histSubBits are exact, and every power of two above
// that is split into histSub linear sub-buckets. Relative error is
// bounded by one sub-bucket, about 1/histSub (6.25%), across the whole
// int64 range — fine-grained enough for latency percentiles, small
// enough (histBuckets fixed slots) to allocate once and update with a
// single atomic add per observation.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	// Index layout: [0, 2*histSub) is linear; each further power of two
	// adds histSub buckets. The top index is reached at values just
	// below 2^63.
	histBuckets = (64 - histSubBits) * histSub
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	k := uint(bits.Len64(u) - 1)
	return int(k-histSubBits)*histSub + int(u>>(k-histSubBits))
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < 2*histSub {
		return int64(i), int64(i + 1)
	}
	e := uint(i/histSub - 1)
	m := int64(i%histSub + histSub)
	lo = m << e
	hi = (m + 1) << e
	if hi < lo { // top bucket: (m+1)<<e overflows past MaxInt64
		hi = math.MaxInt64
	}
	return lo, hi
}

// Histogram records a distribution of non-negative int64 values —
// durations in nanoseconds by convention (the ".ns" suffix), but any
// unit works. Recording is allocation-free: one atomic add into a fixed
// bucket plus atomic count/sum/min/max maintenance.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records the elapsed time since t0 in nanoseconds — the
// usual way to time a code path:
//
//	defer h.ObserveSince(time.Now())
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(int64(time.Since(t0)))
}

// reset zeroes the histogram in place (see Registry.Reset). Not
// synchronized against concurrent Observe calls.
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the midpoint of
// the bucket holding that rank, so the estimate is within one bucket
// width of the exact order statistic. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)/2
		}
	}
	// Concurrent observers can leave count ahead of the bucket sums for
	// an instant; fall back to the max seen.
	return h.max.Load()
}

// BucketCount is one occupied histogram bucket: the half-open value
// range [Lo, Hi) and how many observations landed in it.
type BucketCount struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Buckets returns the occupied buckets in ascending value order. The
// summary percentiles are midpoint estimates; the raw buckets are for
// callers that want the distribution itself — cross-run latency-shape
// comparison, histogram plots, or recomputing quantiles at other ranks.
// Empty buckets are elided, so the slice is short for typical latency
// distributions even though the backing array spans all of int64.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		out = append(out, BucketCount{Lo: lo, Hi: hi, Count: n})
	}
	return out
}

// HistogramSummary is the snapshot form of a histogram.
type HistogramSummary struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Summary captures count, sum, min/max, and the standard percentiles.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		s.Min = 0
		return s
	}
	s.P50 = h.Quantile(0.50)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	return s
}
