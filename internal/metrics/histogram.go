package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of latency buckets every Histogram carries.
// Bucket i covers durations in (1µs·2^(i−1), 1µs·2^i]; bucket 0 absorbs
// everything at or below 1µs and the last bucket absorbs the long tail
// (1µs·2^39 ≈ 152h, far beyond any slide). Fixed bounds make histograms
// from different components mergeable without negotiation and keep a
// snapshot a comparable value type (a plain array).
const HistBuckets = 40

// histBase is the upper bound of bucket 0, in nanoseconds (1µs).
const histBase = 1000

// histIndex returns the bucket for a duration of ns nanoseconds: the
// smallest i with 1µs·2^i ≥ ns.
func histIndex(ns int64) int {
	if ns <= histBase {
		return 0
	}
	i := bits.Len64(uint64((ns - 1) / histBase))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// HistogramUpperBound returns bucket i's inclusive upper bound.
func HistogramUpperBound(i int) time.Duration {
	return time.Duration(histBase << uint(i))
}

// Histogram is a fixed-bucket latency histogram designed for hot paths:
// recording is two atomic adds (no locks, no allocation), histograms
// merge bucket-by-bucket because every instance shares the same bounds,
// and quantiles are read without stopping writers. The zero value is
// ready to use; use by pointer and do not copy after first use.
//
// Quantiles are reported as the upper bound of the bucket holding the
// requested rank, so they overestimate by at most 2× — the right bias
// for latency SLOs (never report a latency better than reality).
type Histogram struct {
	counts [HistBuckets]atomic.Int64
	sum    atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records one duration given in nanoseconds. Negative values
// are clamped to zero. There is no separate observation count to keep in
// step: the count is the total of the buckets, added up by whoever reads
// it, so the recording side pays for a bucket and the sum and nothing else
// (counters are monotone, never torn).
func (h *Histogram) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(ns)].Add(1)
	h.sum.Add(ns)
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns the q-th latency quantile (0 ≤ q ≤ 1), or 0 with no
// observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Merge adds o's observations into h (both keep recording independently
// afterwards). Merging a histogram into itself is not supported.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o == h {
		return
	}
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(o.sum.Load())
}

// Snapshot freezes the histogram into a value. It does not stop writers,
// so a snapshot taken mid-run is not a single point in time — but every
// counter in it is monotone (never exceeds a later snapshot) and the
// total count is the sum of the bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.SumNs = h.sum.Load()
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// HistogramSnapshot is an immutable, comparable copy of a Histogram.
type HistogramSnapshot struct {
	// Count is the number of observations: the total of Counts.
	Count int64
	// SumNs is the total of all observed durations in nanoseconds.
	SumNs int64
	// Counts holds per-bucket observation counts; bucket bounds are
	// HistogramUpperBound(i).
	Counts [HistBuckets]int64
}

// total returns the bucket-count total, the self-consistent denominator
// for quantiles.
func (s HistogramSnapshot) total() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile returns the q-th quantile as the upper bound of the bucket
// holding that rank, or 0 with no observations.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	n := s.total()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			return HistogramUpperBound(i)
		}
	}
	return HistogramUpperBound(HistBuckets - 1)
}

// Mean returns the average observed duration, or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	n := s.total()
	if n == 0 {
		return 0
	}
	return time.Duration(s.SumNs / n)
}

// Sub returns the per-bucket difference s − o (the observations recorded
// between two snapshots of the same histogram).
func (s HistogramSnapshot) Sub(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count - o.Count, SumNs: s.SumNs - o.SumNs}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - o.Counts[i]
	}
	return out
}

// String renders the count, mean, and the standard quantile trio.
func (s HistogramSnapshot) String() string {
	if s.total() == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p50=%v p95=%v p99=%v",
		s.total(), s.Mean(), s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
	return b.String()
}
