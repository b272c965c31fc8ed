// Package stat holds the few order statistics the benchmark reports:
// medians, mid-means, interpolated percentiles, the tail percentile a sample can
// support, and the quartiles `rpqload -compare` judges spreads with.
package stat

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Median returns the median of xs (0 for an empty sample).
func Median(xs []float64) float64 { return Percentile(Sorted(xs), 50) }

// MidMean returns the mean of the middle half of xs, the values from
// the first quartile's rank to the third's (0 for an empty sample). A
// few calls that were interrupted do not move it, as they do a mean,
// and it averages over more of the sample than a median does.
func MidMean(xs []float64) float64 {
	s := Sorted(xs)
	s = s[len(s)/4 : len(s)-len(s)/4]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// Percentile returns the p-th percentile (0–100) of an ascending
// sample by linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// tailGrid lists the percentiles a tail metric may be reported at,
// highest first. The gated tail metric is named read_p99_ms, so 99 is
// the ceiling even when the sample would support more.
var tailGrid = []float64{99, 98, 95, 90, 75, 50}

// TailPercentile returns the highest percentile of the grid that leaves
// at least ten of n samples beyond it. It depends on n alone, so two
// commits run over the same op log report the same percentile.
func TailPercentile(n int) float64 {
	for _, p := range tailGrid {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// MedianOfPasses collapses passes[p][i] (the latency of op i in pass
// p) into one value per op: the median of that op across passes. Every
// pass must cover the same ops.
func MedianOfPasses(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for p := range passes {
			col[p] = passes[p][i]
		}
		out[i] = Median(col)
	}
	return out
}

// Quartiles returns the first quartile, median and third quartile of
// xs exactly as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) computes them, which is what the driver uses to
// judge a metric's spread. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile distance as a share of the median: the
// figure the driver holds against a metric's bound.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
