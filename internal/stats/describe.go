package stats

import (
	"math"
	"sort"
)

// MeanOf returns the arithmetic mean of xs, or 0 for an empty slice.
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// VarianceOf returns the unbiased sample variance of xs, or 0 for fewer
// than two elements. It uses the two-pass formula, the reference the
// Welford property tests compare against.
func VarianceOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := MeanOf(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// PercentileOf returns the p-th percentile (p in [0,1]) of xs using
// linear interpolation between closest ranks, without modifying xs.
// It returns NaN for an empty slice.
func PercentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileOfSorted(sorted, p)
}

// PercentileOfSorted is PercentileOf for an already-sorted slice,
// avoiding the copy and sort.
func PercentileOfSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	// Linear interpolation between closest ranks (the "exclusive"
	// definition used by most analytics systems).
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
