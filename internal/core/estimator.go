package core

import (
	"math"

	"spear/internal/agg"
	"spear/internal/sample"
	"spear/internal/stats"
)

// ScalarState is the window state a scalar accuracy estimator sees at
// watermark arrival: the reservoir sample, the window size, and the
// sample's moments.
type ScalarState struct {
	// Sample is the simple random sample held in the budget. It must
	// not be modified (it aliases the reservoir).
	Sample []float64
	// N is the window size |S_w|.
	N int64
	// Stats are the moments of the sample, computed from it at the fire.
	Stats *stats.Welford
	// Epsilon and Confidence are the user's (ε, α).
	Epsilon, Confidence float64
	// Agg is the operation being estimated; meaningless when Custom
	// is set.
	Agg agg.Func
	// Custom is the user-defined operation being estimated, when the
	// query uses one. The built-in estimators refuse custom
	// operations (they cannot know the estimator's sampling
	// behavior); user estimators receive it for dispatching.
	Custom *agg.CustomFunc
}

// ScalarEstimator produces the estimated error ε̂_w for a scalar window.
// ok=false means the window cannot be accelerated at all (regardless of
// ε̂), forcing exact processing. This is the extension point for the
// paper's custom approximate operations.
type ScalarEstimator func(s ScalarState) (estErr float64, ok bool)

// GroupedState is the per-window state a grouped estimator sees.
type GroupedState struct {
	// Groups holds each group's frequency and value variance,
	// accumulated at tuple arrival.
	Groups *sample.GroupStats
	// Alloc is the congressional sample allocation for this window.
	Alloc map[string]int
	// N is the window size.
	N int64
	// Epsilon and Confidence are the user's (ε, α).
	Epsilon, Confidence float64
	// Agg is the per-group operation.
	Agg agg.Func
}

// GroupedEstimator produces the aggregated (L1) error estimate for a
// grouped window.
type GroupedEstimator func(g GroupedState) (estErr float64, ok bool)

// MeanLikeEstimator is the default estimator for distributive and
// algebraic scalar operations. It builds the finite-population-corrected
// normal confidence interval of §4.2 and reports its half-width relative
// to the estimate.
func MeanLikeEstimator(s ScalarState) (float64, bool) {
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
		iv := stats.MeanCIAuto(est, s.Stats.StdDev(), n, s.N, s.Confidence)
		return stats.RelativeHalfWidth(est, iv), true
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

// QuantileEstimator is the default estimator for holistic quantile
// operations, following the paper's adoption of Manku et al.: accuracy
// is established "by comparing the allocated budget b for a window with
// the expected budget". The sample admits an (ε, δ)-approximate quantile
// iff its size reaches the Hoeffding bound; the reported ε̂ is the rank
// error achievable at the actual sample size.
func QuantileEstimator(s ScalarState) (float64, bool) {
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
	return stats.QuantileRankError(n, s.Confidence), true
}

// TrimmedMeanEstimator returns an accuracy estimator for the
// agg.TrimmedMean(frac) custom operation: it trims the sample exactly
// the way the aggregate does and builds the finite-population mean
// confidence interval over the surviving values. It is both a usable
// estimator and the repository's worked example of the paper's
// custom-operation API.
func TrimmedMeanEstimator(frac float64) ScalarEstimator {
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
		iv := stats.MeanCIAuto(est, w.StdDev(), w.Count(), nTrim, s.Confidence)
		return stats.RelativeHalfWidth(est, iv), true
	}
}

// DefaultScalarEstimate runs the built-in scalar estimator for the
// state's aggregate. Custom estimators can wrap it to observe or adjust
// the engine's decisions.
func DefaultScalarEstimate(s ScalarState) (float64, bool) {
	if s.Agg.Holistic() {
		return QuantileEstimator(s)
	}
	return MeanLikeEstimator(s)
}

// DefaultGroupedEstimate runs the built-in grouped estimator for the
// state's aggregate. Custom estimators can wrap it to observe or adjust
// the engine's decisions. It estimates each group's error from its
// allocated sample size, then aggregates with the L1 metric of Acharya
// et al. (§4.2: "SPEAr calculates the error for each group e_g and then
// combines all e_g values"): the mean of per-group error estimates. A
// window is non-accelerable when any group would go unrepresented.
func DefaultGroupedEstimate(g GroupedState) (float64, bool) {
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
			sum += stats.QuantileRankError(nG, g.Confidence)
		case f.Op == agg.Count:
			// frequencies are exact
		default:
			est := w.Mean()
			iv := stats.MeanCIAuto(est, w.StdDev(), nG, NG, g.Confidence)
			sum += stats.RelativeHalfWidth(est, iv)
		}
	})
	if !okAll {
		return math.Inf(1), false
	}
	return sum / float64(g.Groups.Len()), true
}
