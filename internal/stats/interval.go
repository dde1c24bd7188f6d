package stats

import "math"

// Interval is a two-sided confidence interval around an estimate.
type Interval struct {
	Low, High float64
}

// Width returns High - Low.
func (iv Interval) Width() float64 { return iv.High - iv.Low }

// MeanCI returns the confidence interval for a population mean estimated
// from a simple random sample of size n drawn without replacement from a
// window of size N (paper §4.2, following Cochran):
//
//	y ± z·s/√n·√(1 − n/N)
//
// where y is the sample mean, s the sample standard deviation, and z the
// normal deviate for the requested confidence. The √(1−n/N) term is the
// finite population correction: when the sample is the whole window the
// interval collapses to a point.
func MeanCI(sampleMean, sampleStdDev float64, n, N int64, conf float64) Interval {
	if n <= 0 {
		return Interval{Low: math.Inf(-1), High: math.Inf(1)}
	}
	if N > 0 && n >= N {
		return Interval{Low: sampleMean, High: sampleMean}
	}
	z := ZForConfidence(conf)
	fpc := 1.0
	if N > 0 {
		fpc = math.Sqrt(1 - float64(n)/float64(N))
	}
	half := z * sampleStdDev / math.Sqrt(float64(n)) * fpc
	return Interval{Low: sampleMean - half, High: sampleMean + half}
}

// RelativeHalfWidth converts a confidence interval around estimate est
// into the relative error SPEAr compares against the user's ε: the
// half-width of the interval divided by |est| ("SPEAr treats the
// confidence interval of R̂_w as a relative distance to R̂_w", §4.2).
// A zero estimate with a non-degenerate interval yields +Inf, which can
// never pass an ε check — the conservative choice.
func RelativeHalfWidth(est float64, iv Interval) float64 {
	half := iv.Width() / 2
	if half == 0 {
		return 0
	}
	if est == 0 {
		return math.Inf(1)
	}
	return half / math.Abs(est)
}

// RelativeError returns |approx − exact| / |exact|, the realized error
// metric the paper reports in Fig. 11. With exact == 0 it returns 0 when
// approx is also 0 and +Inf otherwise.
func RelativeError(approx, exact float64) float64 {
	if exact == 0 {
		if approx == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(approx-exact) / math.Abs(exact)
}

// QuantileRankError returns the rank error ε within which a sample of
// size n answers any single quantile query with probability at least
// conf, from the Hoeffding bound underlying the one-pass algorithms of
// Manku et al. (SIGMOD'98), which the paper uses as its accuracy test
// for holistic quantile operations (§4.2: "accuracy is estimated by
// comparing the sample's size with S_w's size ... by comparing the
// allocated budget b ... with the expected budget"):
//
//	ε = √(ln(2/δ) / (2n)),   δ = 1 − conf
//
// independent of the window size N. With no sample it returns 1.
func QuantileRankError(n int64, conf float64) float64 {
	if n <= 0 {
		return 1
	}
	delta := 1 - conf
	return math.Sqrt(math.Log(2/delta) / (2 * float64(n)))
}
