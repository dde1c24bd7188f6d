package stats

import "math"

// TQuantile returns the inverse CDF of Student's t distribution with df
// degrees of freedom at probability p in (0, 1), using the
// Cornish-Fisher expansion around the normal quantile (Abramowitz &
// Stegun 26.7.5). Accuracy is better than 1e-3 for df ≥ 3, converging
// to the normal quantile as df grows.
//
// The paper's confidence intervals use the normal deviate (its budgets
// are in the hundreds or thousands, where t ≈ z); the t quantile is
// provided so the estimators stay honest when a user configures very
// small budgets, where the normal interval is too narrow.
func TQuantile(p float64, df int64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	z := NormalQuantile(p)
	if math.IsInf(z, 0) || math.IsNaN(z) {
		return z
	}
	if df > 1_000_000 {
		return z
	}
	v := float64(df)
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return z + g1/v + g2/(v*v) + g3/(v*v*v) + g4/(v*v*v*v)
}

// TForConfidence returns the two-sided t deviate for confidence conf in
// (0, 1) at df degrees of freedom: the t with P(|T| ≤ t) = conf.
func TForConfidence(conf float64, df int64) float64 {
	if !(conf > 0 && conf < 1) {
		panic("stats: confidence must be in (0, 1)")
	}
	return TQuantile(0.5+conf/2, df)
}
