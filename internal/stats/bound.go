package stats

import "math"

// Moments are what a bound reads of the values a sample is drawn from:
// their mean and standard deviation.
type Moments struct{ Mean, StdDev float64 }

// Moments returns the accumulator's mean and standard deviation.
func (w *Welford) Moments() Moments { return Moments{w.Mean(), w.StdDev()} }

// A Family is the accuracy bound of one class of operation (§4.2: "ε_w
// differs among stateful operations"). Err is the relative error ε̂ of a
// simple random sample of n values drawn without replacement from a
// window of N; Need inverts it. The zero Family is Unbounded.
type Family struct {
	err func(n, N int64, m Moments, conf float64) (float64, bool)
}

// The bound families.
var (
	// Mean bounds a mean, and a sum (N·mean), by the finite-population
	// corrected interval of §4.2 (Cochran): ȳ ± t·s/√n·√(1 − n/N), where
	// t is Student's deviate with n−1 degrees of freedom for 2 ≤ n < 60,
	// below which the t interval is materially wider, and the paper's
	// normal deviate otherwise.
	Mean = Family{meanErr}
	// Variance bounds a sample variance: Var(s²) ≈ 2σ⁴/(n−1) under
	// normality, so its relative half-width is z·√(2/(n−1)).
	Variance = Family{varianceErr}
	// StdDev bounds a standard deviation: half the variance's relative
	// half-width (delta method).
	StdDev = Family{func(n, N int64, m Moments, conf float64) (float64, bool) {
		e, ok := varianceErr(n, N, m, conf)
		return e / 2, ok
	}}
	// Quantile bounds the rank error of any single quantile by the
	// Hoeffding bound behind the one-pass algorithms of Manku et al.
	// (SIGMOD'98), which the paper adopts (§4.2: "by comparing the
	// allocated budget b ... with the expected budget"):
	// ε = √(ln(2/δ)/(2n)), δ = 1 − conf, independent of N.
	Quantile = Family{func(n, _ int64, _ Moments, conf float64) (float64, bool) {
		return math.Sqrt(math.Log(2/(1-conf)) / (2 * float64(n))), true
	}}
	// Exact is the family of an operation the window's metadata answers
	// exactly, whatever the sample holds.
	Exact = Family{func(int64, int64, Moments, float64) (float64, bool) { return 0, true }}
	// Unbounded is the family of an operation with no distribution-free
	// bound, such as a sample's extremes: only a sample of the whole
	// window answers it.
	Unbounded = Family{}
)

// Err returns the relative error ε̂ within which a sample of n values from
// a window of N answers the family's operation with confidence conf.
// ok=false means no sample of n values bounds it. A sample of the whole
// window (0 < N ≤ n) answers exactly; an empty one never does. N ≤ 0 is
// a window of unknown size: no finite-population correction applies.
func (f Family) Err(n, N int64, m Moments, conf float64) (float64, bool) {
	switch {
	case n <= 0:
		return math.Inf(1), false
	case N > 0 && n >= N:
		return 0, true
	case f.err == nil:
		return math.Inf(1), false
	}
	return f.err(n, N, m, conf)
}

// Need returns the smallest sample size n whose Err is at most eps, by one
// monotone search over Err: it doubles n until Err passes, then bisects
// below. Err is non-increasing in n from n = 2 on (Mean's n = 1 takes the
// normal deviate, and a one-value sample has s = 0), and n = 1 is tried
// first. ok is false when no n up to 2⁶¹ passes: a window of unknown size
// and a bound that does not shrink with n.
func (f Family) Need(eps float64, N int64, m Moments, conf float64) (int64, bool) {
	pass := func(n int64) bool {
		e, ok := f.Err(n, N, m, conf)
		return ok && e <= eps
	}
	lo, hi := int64(0), int64(1)
	for ; !pass(hi); lo, hi = hi, 2*hi {
		if hi > math.MaxInt64/4 {
			return 0, false
		}
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; pass(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// smallSample is the sample size under which Mean takes Student's t: below
// it the extra width of the t interval is material (>1% at n≈60).
const smallSample = 60

func meanErr(n, N int64, m Moments, conf float64) (float64, bool) {
	dev := ZForConfidence(conf)
	if n >= 2 && n < smallSample {
		dev = TForConfidence(conf, n-1)
	}
	fpc := 1.0
	if N > 0 {
		fpc = math.Sqrt(1 - float64(n)/float64(N))
	}
	return relative(m.Mean, dev*m.StdDev/math.Sqrt(float64(n))*fpc), true
}

func varianceErr(n, _ int64, _ Moments, conf float64) (float64, bool) {
	if n < 2 {
		return math.Inf(1), false
	}
	return ZForConfidence(conf) * math.Sqrt(2/float64(n-1)), true
}

// relative converts the interval est ± half into the relative error SPEAr
// compares against ε ("SPEAr treats the confidence interval of R̂_w as a
// relative distance to R̂_w", §4.2): the interval's half-width, taken
// from its two ends, over |est|. A zero estimate with a non-degenerate
// interval yields +Inf, which can never pass an ε check.
func relative(est, half float64) float64 {
	if half = ((est + half) - (est - half)) / 2; half == 0 {
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
