// Package stats provides the small summary-statistics toolkit used by the
// experiment harness: per-series mean/deviation/percentiles over repeated
// simulation runs.
//
// Every randomized table in the reproduction flows through here — the
// best-measured sweeps of Figure 1 (experiment E1), the restricted-regime
// means of E5, the gossip/broadcast ratios of E9 — as do the campaign
// layer's per-cell aggregates (count/mean/stddev/min/max/p50/p99), whose
// byte-stability across worker counts rests on these functions being
// deterministic, order-respecting folds.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return SummarizeSorted(xs, Sorted(xs))
}

// SummarizeSorted is Summarize for a caller that already holds sorted,
// xs in ascending order: the median comes from sorted instead of a
// fresh sort. The sums still fold xs in its own order, so the result is
// bit-identical to Summarize(xs).
func SummarizeSorted(xs, sorted []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{Count: n, Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(n-1))
	}
	s.Median = PercentileSorted(sorted, 50)
	return s
}

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// SummarizeInts converts and summarizes integer measurements (the common
// case: round counts).
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty sample
// and panics on out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	return PercentileSorted(Sorted(xs), p)
}

// PercentileSorted is Percentile of a sample already in ascending order,
// without the sorted copy.
func PercentileSorted(sorted []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%g med=%g max=%g",
		s.Count, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}
