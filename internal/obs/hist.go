package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram layout: values (nanoseconds) land in log-spaced buckets
// with histSub linear sub-buckets per power of two, giving a constant
// ≤ 1/histSub relative error on recovered quantiles. Everything is
// atomics — Observe is wait-free and safe from any goroutine.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // 16 sub-buckets per octave
	// Values 0..15 get exact unit buckets (octave 0); each higher
	// octave e ∈ [histSubBits, 63] contributes histSub buckets.
	histBuckets = (64 - histSubBits + 1) * histSub
)

// histClamp is the first bucket whose upper bound saturates at
// MaxInt64 (≈ 292 years in nanoseconds); larger values all land here
// so bucket bounds stay strictly increasing below it.
var histClamp = func() int {
	for i := 0; i < histBuckets; i++ {
		if bucketUpper(i) == math.MaxInt64 {
			return i
		}
	}
	return histBuckets - 1
}()

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= histSubBits
	idx := (e-histSubBits+1)*histSub + int((v>>(uint(e)-histSubBits))&(histSub-1))
	if idx > histClamp {
		idx = histClamp
	}
	return idx
}

// bucketUpper returns the largest value mapping to bucket idx,
// saturating at MaxInt64 for the topmost octaves.
func bucketUpper(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	octave := idx >> histSubBits // >= 1
	sub := idx & (histSub - 1)
	shift := uint(octave - 1)
	upper := (uint64(histSub+sub+1) << shift) - 1
	if shift > 63-histSubBits-1 || upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Histogram is a lock-free log-bucketed latency histogram. The zero
// value is ready to use; a nil *Histogram ignores observations.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot captures a point-in-time copy. Concurrent Observes may be
// torn across fields by at most one observation — fine for reporting.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is an immutable histogram state.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	Count  uint64
	Sum    int64
	Max    int64
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) with
// relative error bounded by the sub-bucket width. Returns 0 when
// empty; Quantile(1) returns the exact observed maximum.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(s.Max)
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum > rank {
			u := bucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			return time.Duration(u)
		}
	}
	return time.Duration(s.Max)
}

// Mean returns the arithmetic mean of all observations.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Count))
}

// Bucket is one non-empty histogram bucket with its inclusive upper
// bound, for cumulative (Prometheus-style) export.
type Bucket struct {
	UpperNS int64
	Count   uint64
}

// Buckets returns the non-empty buckets in ascending bound order.
func (s HistSnapshot) Buckets() []Bucket {
	var out []Bucket
	for i, c := range s.Counts {
		if c != 0 {
			out = append(out, Bucket{UpperNS: bucketUpper(i), Count: c})
		}
	}
	return out
}
