// Package stats provides the statistical machinery behind SPEAr's
// accuracy estimation: running moments (Welford), normal-distribution
// helpers, and one bound family per class of operation: the ε̂ of a
// sample and the sample size that ε needs.
package stats

import "math"

// Welford accumulates count, mean, and variance of a value stream in a
// single pass using Welford's numerically stable recurrence. It is the
// "statistical information on the data distribution" SPEAr maintains in
// the budget b at tuple arrival (paper §4.1): a fixed, tiny footprint
// regardless of window size.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add folds one observation into the accumulator. A NaN propagates to
// Min and Max as it does to Mean and Sum (the builtin min and max),
// wherever in the stream it arrives.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	}
	w.min, w.max = min(w.min, x), max(w.max, x)
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
	w.sum += x
}

// AddSlice folds a run of observations into the accumulator, one at a
// time in order — the ingest kernel's entry point. The recurrence is
// exactly Add's per element, so the result is bit-identical to a
// sequential Add loop (Welford's update is order-dependent; no
// reassociation is allowed here).
func (w *Welford) AddSlice(xs []float64) {
	for _, x := range xs {
		w.Add(x)
	}
}

// Merge folds another accumulator into this one (Chan et al. parallel
// variance formula): how a window's moments are assembled from those of
// its slices at a fire (core.ScalarManager). Merging into an empty
// accumulator copies, so a window of one slice is that slice bit for bit.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	delta := o.mean - w.mean
	total := w.n + o.n
	w.mean += delta * float64(o.n) / float64(total)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(total)
	w.n = total
	w.sum += o.sum
	w.min, w.max = min(w.min, o.min), max(w.max, o.max)
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Sum returns the running sum of observations.
func (w *Welford) Sum() float64 { return w.sum }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }

// Variance returns the unbiased sample variance (n-1 denominator), or 0
// for fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
