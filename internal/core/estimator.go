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

// bounds is each built-in operation's accuracy bound family, the one
// table the scalar check, the grouped L1 combination and the trimmed
// mean read. Sum = N·mean shares the mean's relative error; the window
// size is tracked exactly at tuple arrival; sample extremes carry no
// distribution-free bound, so a Min or Max window is accelerated only
// when fully sampled or maintained incrementally. An Op missing here has
// the zero Family, which refuses (TestEveryOpHasABound keeps the table
// complete).
var bounds = map[agg.Op]stats.Family{
	agg.Count: stats.Exact,
	agg.Sum:   stats.Mean, agg.Mean: stats.Mean,
	agg.Min: stats.Unbounded, agg.Max: stats.Unbounded,
	agg.Variance: stats.Variance, agg.StdDev: stats.StdDev,
	agg.Percentile: stats.Quantile,
}

// TrimmedMeanEstimator returns an accuracy estimator for the
// agg.TrimmedMean(frac) custom operation: it trims the sample exactly
// the way the aggregate does and applies the mean's bound to the
// surviving values. It is both a usable estimator and the repository's
// worked example of the paper's custom-operation API.
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
		// The trimmed stratum of the window holds ≈(1−2·frac)·N values.
		nTrim := int64(float64(s.N) * (1 - 2*frac))
		return stats.Mean.Err(w.Count(), nTrim, w.Moments(), s.Confidence)
	}
}

// DefaultScalarEstimate runs the built-in bound of the state's
// aggregate over its sample. It refuses custom operations, whose
// sampling behavior it cannot know. Custom estimators can wrap it to
// observe or adjust the engine's decisions.
func DefaultScalarEstimate(s ScalarState) (float64, bool) {
	if s.Custom != nil {
		return math.Inf(1), false
	}
	return bounds[s.Agg.Op].Err(int64(len(s.Sample)), s.N, s.Stats.Moments(), s.Confidence)
}

// DefaultGroupedEstimate runs the built-in grouped estimator for the
// state's aggregate. Custom estimators can wrap it to observe or adjust
// the engine's decisions. It bounds each group's error from its
// allocated sample size with the aggregate's bound family, then
// combines them with the L1 metric of Acharya et al. (§4.2: "SPEAr
// calculates the error for each group e_g and then combines all e_g
// values"): the mean of per-group error estimates. A window is
// non-accelerable when any group would go unrepresented or unbounded.
func DefaultGroupedEstimate(g GroupedState) (float64, bool) {
	if g.Groups.Len() == 0 || len(g.Alloc) < g.Groups.Len() {
		// No group, or some group got no sample slots: R̂_w would
		// miss it, violating |R̂_w| = |R_w|.
		return math.Inf(1), false
	}
	// Sorted group order: the L1 combination is a float sum, and arrival
	// order must not leak into ε̂ — two managers fed the same stream
	// must report bit-identical estimates (cf. CongressAllocate, which
	// sorts for the same reason).
	bound := bounds[g.Agg.Op]
	var sum float64
	ok := true
	g.Groups.EachSorted(func(key string, w *stats.Welford) {
		if ok {
			var e float64
			e, ok = bound.Err(int64(g.Alloc[key]), w.Count(), w.Moments(), g.Confidence)
			sum += e
		}
	})
	if !ok {
		return math.Inf(1), false
	}
	return sum / float64(g.Groups.Len()), true
}
