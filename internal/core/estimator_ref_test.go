package core

import (
	"math"

	"spear/internal/agg"
	"spear/internal/stats"
)

// The estimators as they stood before the bound families, verbatim: the
// reference the lookup by agg.Op must match bit for bit
// (TestLookupMatchesReference). The interval helpers they called from
// internal/stats come along under ref names.

// refInterval is a two-sided confidence interval around an estimate.
type refInterval struct {
	Low, High float64
}

// Width returns High - Low.
func (iv refInterval) Width() float64 { return iv.High - iv.Low }

func refMeanCI(sampleMean, sampleStdDev float64, n, N int64, conf float64) refInterval {
	if n <= 0 {
		return refInterval{Low: math.Inf(-1), High: math.Inf(1)}
	}
	if N > 0 && n >= N {
		return refInterval{Low: sampleMean, High: sampleMean}
	}
	z := stats.ZForConfidence(conf)
	fpc := 1.0
	if N > 0 {
		fpc = math.Sqrt(1 - float64(n)/float64(N))
	}
	half := z * sampleStdDev / math.Sqrt(float64(n)) * fpc
	return refInterval{Low: sampleMean - half, High: sampleMean + half}
}

func refRelativeHalfWidth(est float64, iv refInterval) float64 {
	half := iv.Width() / 2
	if half == 0 {
		return 0
	}
	if est == 0 {
		return math.Inf(1)
	}
	return half / math.Abs(est)
}

func refQuantileRankError(n int64, conf float64) float64 {
	if n <= 0 {
		return 1
	}
	delta := 1 - conf
	return math.Sqrt(math.Log(2/delta) / (2 * float64(n)))
}

const refSmallSampleCutoff = 60

func refMeanCIAuto(sampleMean, sampleStdDev float64, n, N int64, conf float64) refInterval {
	if n >= refSmallSampleCutoff || n < 2 {
		return refMeanCI(sampleMean, sampleStdDev, n, N, conf)
	}
	if N > 0 && n >= N {
		return refInterval{Low: sampleMean, High: sampleMean}
	}
	t := stats.TForConfidence(conf, n-1)
	fpc := 1.0
	if N > 0 {
		fpc = math.Sqrt(1 - float64(n)/float64(N))
	}
	half := t * sampleStdDev / math.Sqrt(float64(n)) * fpc
	return refInterval{Low: sampleMean - half, High: sampleMean + half}
}

func refMeanLikeEstimator(s ScalarState) (float64, bool) {
	if s.Custom != nil {
		return math.Inf(1), false // no generic bound for custom ops
	}
	n := int64(len(s.Sample))
	if n == 0 {
		return math.Inf(1), false
	}
	if n >= s.N {
		return 0, true // the sample is the whole window
	}
	switch s.Agg.Op {
	case agg.Count:
		// The window size is tracked exactly at tuple arrival.
		return 0, true
	case agg.Mean, agg.Sum:
		// Sum = N·mean shares the mean's relative error; small
		// samples use Student's t (stats.MeanCIAuto), larger ones
		// the paper's normal deviate.
		est := s.Stats.Mean()
		iv := refMeanCIAuto(est, s.Stats.StdDev(), n, s.N, s.Confidence)
		return refRelativeHalfWidth(est, iv), true
	case agg.Variance, agg.StdDev:
		// Var(s²) ≈ 2σ⁴/(n−1) under normality, so the relative CI
		// half-width of the variance is z·√(2/(n−1)); the stddev's
		// is half that (delta method).
		if n < 2 {
			return math.Inf(1), false
		}
		z := stats.ZForConfidence(s.Confidence)
		rel := z * math.Sqrt(2/float64(n-1))
		if s.Agg.Op == agg.StdDev {
			rel /= 2
		}
		return rel, true
	case agg.Min, agg.Max:
		// Sample extremes carry no distribution-free error bound; a
		// window can only be "accelerated" when fully sampled
		// (handled above) or maintained incrementally.
		return math.Inf(1), false
	default:
		return math.Inf(1), false
	}
}

func refQuantileEstimator(s ScalarState) (float64, bool) {
	if s.Custom != nil {
		return math.Inf(1), false
	}
	n := int64(len(s.Sample))
	if n == 0 {
		return math.Inf(1), false
	}
	if n >= s.N {
		return 0, true
	}
	return refQuantileRankError(n, s.Confidence), true
}

func refTrimmedMeanEstimator(frac float64) ScalarEstimator {
	if !(frac >= 0 && frac < 0.5) {
		panic("core: trim fraction must be in [0, 0.5)")
	}
	return func(s ScalarState) (float64, bool) {
		if len(s.Sample) < 30 {
			return math.Inf(1), false // below CLT territory
		}
		lo := stats.PercentileOf(s.Sample, frac)
		hi := stats.PercentileOf(s.Sample, 1-frac)
		var w stats.Welford
		for _, v := range s.Sample {
			if v >= lo && v <= hi {
				w.Add(v)
			}
		}
		if w.Count() < 2 {
			return math.Inf(1), false
		}
		est := w.Mean()
		// The trimmed stratum of the window holds ≈(1−2·frac)·N values.
		nTrim := int64(float64(s.N) * (1 - 2*frac))
		iv := refMeanCIAuto(est, w.StdDev(), w.Count(), nTrim, s.Confidence)
		return refRelativeHalfWidth(est, iv), true
	}
}

func refDefaultScalarEstimate(s ScalarState) (float64, bool) {
	if s.Agg.Holistic() {
		return refQuantileEstimator(s)
	}
	return refMeanLikeEstimator(s)
}

func refDefaultGroupedEstimate(g GroupedState) (float64, bool) {
	f := g.Agg
	if g.Groups.Len() == 0 {
		return math.Inf(1), false
	}
	if len(g.Alloc) < g.Groups.Len() {
		// Some group got no sample slots: R̂_w would miss it,
		// violating |R̂_w| = |R_w|.
		return math.Inf(1), false
	}
	// Sorted group order: the L1 combination is a float sum, and arrival
	// order must not leak into ε̂ — two managers fed the same stream
	// must report bit-identical estimates (cf. CongressAllocate, which
	// sorts for the same reason).
	var sum float64
	okAll := true
	g.Groups.EachSorted(func(key string, w *stats.Welford) {
		nG := int64(g.Alloc[key])
		NG := w.Count()
		if nG <= 0 {
			okAll = false
		}
		if !okAll || nG >= NG {
			return // nothing to add: unanswerable, or stratum fully sampled
		}
		switch {
		case f.Holistic():
			sum += refQuantileRankError(nG, g.Confidence)
		case f.Op == agg.Count:
			// frequencies are exact
		default:
			est := w.Mean()
			iv := refMeanCIAuto(est, w.StdDev(), nG, NG, g.Confidence)
			sum += refRelativeHalfWidth(est, iv)
		}
	})
	if !okAll {
		return math.Inf(1), false
	}
	return sum / float64(g.Groups.Len()), true
}
