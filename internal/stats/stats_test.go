package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Count() != 0 {
		t.Error("zero Welford should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want 32/7", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
	if !almostEqual(w.Sum(), 40, 1e-12) {
		t.Errorf("Sum = %v", w.Sum())
	}
}

func TestWelfordSingleValue(t *testing.T) {
	var w Welford
	w.Add(-3.5)
	if w.Mean() != -3.5 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Errorf("single value: mean=%v var=%v", w.Mean(), w.Variance())
	}
	if w.Min() != -3.5 || w.Max() != -3.5 {
		t.Error("min/max should equal the single value")
	}
}

func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		size := int(n%100) + 2
		xs := make([]float64, size)
		var w Welford
		for i := range xs {
			xs[i] = r.NormFloat64()*1e3 + 1e6 // offset stresses stability
			w.Add(xs[i])
		}
		return almostEqual(w.Mean(), MeanOf(xs), 1e-9) &&
			almostEqual(w.Variance(), VarianceOf(xs), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWelfordMergeProperty splits a stream k ways and merges the parts
// in order, as a fire assembles a window from its slices: the count and
// the extremes are those of one sequential pass, mean and variance
// agree with it to 1e-9 relative — also when the values sit on a
// common offset of 1e9, where a sum-of-squares merge would keep no
// digit of the variance.
func TestWelfordMergeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(k uint8, sizes [9]uint8, shifted bool) bool {
		offset := 0.0
		if shifted {
			offset = 1e9
		}
		var merged, all Welford
		for _, n := range sizes[:k%9+1] {
			var part Welford
			shift := r.NormFloat64() // the parts differ in level
			for i := 0; i <= int(n%200); i++ {
				x := offset + shift + r.NormFloat64()*10
				part.Add(x)
				all.Add(x)
			}
			merged.Merge(part)
		}
		return merged.Count() == all.Count() &&
			almostEqual(merged.Mean(), all.Mean(), 1e-9*math.Abs(all.Mean())+1e-12) &&
			almostEqual(merged.Variance(), all.Variance(), 1e-9*all.Variance()) &&
			almostEqual(merged.Sum(), all.Sum(), 1e-9*math.Abs(all.Sum())+1e-9) &&
			merged.Min() == all.Min() && merged.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWelfordNonFiniteExtremes: a NaN reaches Min and Max wherever it
// arrives — first (where it used to stick), in the middle (where it
// used to vanish) or in a merged part — and the infinities are extremes
// like any other value.
func TestWelfordNonFiniteExtremes(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for at := 0; at < 6; at++ {
			for cut := 0; cut <= 6; cut++ {
				var seq, a, b Welford
				wantMin, wantMax := math.Inf(1), math.Inf(-1)
				for i := 0; i < 6; i++ {
					x := float64(i*i) - 7
					if i == at {
						x = bad
					}
					wantMin, wantMax = math.Min(wantMin, x), math.Max(wantMax, x) // NaN-propagating
					seq.Add(x)
					if i < cut {
						a.Add(x)
					} else {
						b.Add(x)
					}
				}
				a.Merge(b)
				for _, w := range []Welford{seq, a} {
					if !sameFloat(w.Min(), wantMin) || !sameFloat(w.Max(), wantMax) {
						t.Errorf("%v at %d, cut at %d: min %v max %v, want %v %v", bad, at, cut, w.Min(), w.Max(), wantMin, wantMax)
					}
				}
			}
		}
	}
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Error("merge with empty changed state")
	}
	b.Merge(a) // merging into empty copies
	if b.Count() != 2 || b.Mean() != 2 {
		t.Errorf("merge into empty: count=%d mean=%v", b.Count(), b.Mean())
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.84134, 0.99999}, // Φ(1) ≈ 0.84134
	}
	for _, tc := range tests {
		got := NormalQuantile(tc.p)
		if math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("edge probabilities should map to infinities")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(math.NaN())) {
		t.Error("invalid probabilities should map to NaN")
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for p := 0.001; p < 1; p += 0.017 {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-8 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestZForConfidence(t *testing.T) {
	if z := ZForConfidence(0.95); math.Abs(z-1.96) > 0.001 {
		t.Errorf("z(95%%) = %v, want 1.96", z)
	}
	if z := ZForConfidence(0.99); math.Abs(z-2.576) > 0.001 {
		t.Errorf("z(99%%) = %v, want 2.576", z)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on conf=1")
		}
	}()
	ZForConfidence(1)
}

func TestMeanCI(t *testing.T) {
	// n = N collapses to a point (finite population correction).
	iv := MeanCI(10, 5, 100, 100, 0.95)
	if iv.Low != 10 || iv.High != 10 {
		t.Errorf("full sample CI = %+v, want point", iv)
	}
	// Zero variance collapses to a point too.
	iv = MeanCI(10, 0, 50, 100, 0.95)
	if iv.Width() != 0 {
		t.Errorf("zero stddev CI width = %v", iv.Width())
	}
	// Standard case: y=100, s=10, n=100, N very large → ±1.96.
	iv = MeanCI(100, 10, 100, 1e9, 0.95)
	if math.Abs(iv.Low-(100-1.96)) > 0.01 || math.Abs(iv.High-(100+1.96)) > 0.01 {
		t.Errorf("CI = %+v", iv)
	}
	// FPC shrinks the interval.
	ivFPC := MeanCI(100, 10, 100, 200, 0.95)
	if ivFPC.Width() >= iv.Width() {
		t.Error("FPC should shrink the interval")
	}
	if math.Abs(ivFPC.Width()/iv.Width()-math.Sqrt(0.5)) > 1e-6 {
		t.Errorf("FPC ratio = %v, want √0.5", ivFPC.Width()/iv.Width())
	}
	// Empty sample is unbounded.
	iv = MeanCI(0, 0, 0, 100, 0.95)
	if !math.IsInf(iv.Low, -1) || !math.IsInf(iv.High, 1) {
		t.Errorf("empty sample CI = %+v", iv)
	}
	// N unknown (0) drops the FPC rather than collapsing.
	iv = MeanCI(100, 10, 100, 0, 0.95)
	if math.Abs(iv.Width()-2*1.96) > 0.01 {
		t.Errorf("no-N CI width = %v", iv.Width())
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Low: 8, High: 12}
	if iv.Width() != 4 {
		t.Errorf("Width = %v", iv.Width())
	}
	if got := RelativeHalfWidth(10, iv); got != 0.2 {
		t.Errorf("RelativeHalfWidth = %v, want 0.2", got)
	}
	if got := RelativeHalfWidth(0, iv); !math.IsInf(got, 1) {
		t.Errorf("zero estimate should give +Inf, got %v", got)
	}
	if got := RelativeHalfWidth(0, Interval{Low: 0, High: 0}); got != 0 {
		t.Errorf("degenerate interval should give 0, got %v", got)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("RelativeError = %v", got)
	}
	if got := RelativeError(90, -100); !almostEqual(got, 1.9, 1e-12) {
		t.Errorf("RelativeError with negative exact = %v", got)
	}
	if RelativeError(0, 0) != 0 {
		t.Error("0/0 should be 0")
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("x/0 should be +Inf")
	}
}

func TestQuantileRankError(t *testing.T) {
	// ε=10%, δ=5%: ln(40)/0.02 ≈ 184.4, so 185 samples are the fewest
	// that reach ε ≤ 0.10 (the figure ROADMAP item 4(b) quotes).
	if e := QuantileRankError(185, 0.95); e > 0.10 {
		t.Errorf("rank error at n=185 = %v > 0.10", e)
	}
	if e := QuantileRankError(184, 0.95); e <= 0.10 {
		t.Errorf("rank error at n=184 = %v ≤ 0.10", e)
	}
	// Halving ε takes four times the samples.
	if e, e4 := QuantileRankError(185, 0.95), QuantileRankError(4*185, 0.95); !almostEqual(e4, e/2, 1e-12) {
		t.Errorf("rank error at 4n = %v, want half of %v", e4, e)
	}
	for _, n := range []int64{0, -1} {
		if QuantileRankError(n, 0.95) != 1 {
			t.Errorf("n=%d: an empty sample should have error 1", n)
		}
	}
	// No finite sample gives certainty.
	if e := QuantileRankError(185, 1); !math.IsInf(e, 1) {
		t.Errorf("rank error at conf=1 = %v, want +Inf", e)
	}
}

// Statistical sanity: ~conf of CIs built from random samples should
// cover the true mean. Seeded, with generous slack.
func TestMeanCICoverage(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const (
		N     = 20000
		n     = 400
		conf  = 0.95
		reps  = 300
		truth = 50.0
	)
	pop := make([]float64, N)
	for i := range pop {
		pop[i] = truth + r.NormFloat64()*20
	}
	var popMean float64
	for _, x := range pop {
		popMean += x
	}
	popMean /= N

	covered := 0
	for rep := 0; rep < reps; rep++ {
		var w Welford
		// Sample without replacement via partial Fisher-Yates.
		idx := r.Perm(N)[:n]
		for _, i := range idx {
			w.Add(pop[i])
		}
		iv := MeanCI(w.Mean(), w.StdDev(), int64(n), int64(N), conf)
		if iv.Low <= popMean && popMean <= iv.High {
			covered++
		}
	}
	rate := float64(covered) / reps
	if rate < 0.90 {
		t.Errorf("coverage = %.3f, want ≥ 0.90 for nominal 0.95", rate)
	}
}

func TestPercentileOf(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p, want float64
	}{
		{0, 15},
		{1, 50},
		{0.5, 35},
		{0.25, 20},
		{0.75, 40},
	}
	for _, tc := range tests {
		if got := PercentileOf(xs, tc.p); got != tc.want {
			t.Errorf("PercentileOf(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(PercentileOf(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
	// Input must not be mutated.
	before := append([]float64(nil), 3, 1, 2)
	PercentileOf(before, 0.5)
	if before[0] != 3 || before[1] != 1 || before[2] != 2 {
		t.Error("PercentileOf mutated its input")
	}
	// Interpolation between ranks.
	if got := PercentileOf([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("interpolated = %v, want 15", got)
	}
}

func TestMeanVarianceOf(t *testing.T) {
	if MeanOf(nil) != 0 || VarianceOf([]float64{1}) != 0 {
		t.Error("degenerate inputs should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(VarianceOf(xs), 32.0/7.0, 1e-12) {
		t.Errorf("VarianceOf = %v", VarianceOf(xs))
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(float64(i&1023) * 1.5)
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NormalQuantile(0.975)
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	tests := []struct {
		p    float64
		df   int64
		want float64
		tol  float64
	}{
		{0.975, 5, 2.5706, 0.01},
		{0.975, 10, 2.2281, 0.005},
		{0.975, 30, 2.0423, 0.002},
		{0.95, 5, 2.0150, 0.01},
		{0.95, 20, 1.7247, 0.003},
		{0.995, 10, 3.1693, 0.02},
		{0.5, 7, 0, 1e-9},
	}
	for _, tc := range tests {
		got := TQuantile(tc.p, tc.df)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("TQuantile(%v, %d) = %v, want %v", tc.p, tc.df, got, tc.want)
		}
	}
	if !math.IsNaN(TQuantile(0.5, 0)) {
		t.Error("df=0 should be NaN")
	}
	// Converges to the normal quantile.
	if math.Abs(TQuantile(0.975, 2_000_000)-NormalQuantile(0.975)) > 1e-9 {
		t.Error("large df should equal normal")
	}
	if got := TQuantile(1, 5); !math.IsInf(got, 1) {
		t.Errorf("p=1 = %v", got)
	}
}

func TestTForConfidence(t *testing.T) {
	if got := TForConfidence(0.95, 10); math.Abs(got-2.2281) > 0.005 {
		t.Errorf("t(95%%, 10) = %v", got)
	}
	// t is always wider than z.
	for _, df := range []int64{3, 5, 10, 30, 100} {
		if TForConfidence(0.95, df) <= ZForConfidence(0.95)-1e-9 {
			t.Errorf("t(df=%d) narrower than z", df)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	TForConfidence(0, 5)
}

func TestMeanCIAuto(t *testing.T) {
	// Large n: identical to the normal interval.
	a := MeanCIAuto(100, 10, 500, 10000, 0.95)
	b := MeanCI(100, 10, 500, 10000, 0.95)
	if a != b {
		t.Errorf("large-n auto %+v != normal %+v", a, b)
	}
	// Small n: strictly wider than the normal interval.
	small := MeanCIAuto(100, 10, 10, 10000, 0.95)
	norm := MeanCI(100, 10, 10, 10000, 0.95)
	if small.Width() <= norm.Width() {
		t.Errorf("t interval %v not wider than z %v", small.Width(), norm.Width())
	}
	// t(9, 97.5%) = 2.262 vs z = 1.96: ratio ≈ 1.154.
	if r := small.Width() / norm.Width(); math.Abs(r-2.262/1.96) > 0.01 {
		t.Errorf("width ratio = %v", r)
	}
	// Full sample collapses.
	if iv := MeanCIAuto(5, 1, 20, 20, 0.95); iv.Width() != 0 {
		t.Errorf("full-sample CI = %+v", iv)
	}
	// n < 2 falls back to the unbounded normal behavior.
	if iv := MeanCIAuto(0, 0, 0, 100, 0.95); !math.IsInf(iv.High, 1) {
		t.Errorf("empty CI = %+v", iv)
	}
}

// Coverage with a small sample: the t interval must hold ≈95%, where
// the normal interval under-covers.
func TestSmallSampleTCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(314))
	const (
		n    = 8
		reps = 4000
	)
	coveredT := 0
	for rep := 0; rep < reps; rep++ {
		var w Welford
		for i := 0; i < n; i++ {
			w.Add(r.NormFloat64() * 3)
		}
		if iv := MeanCIAuto(w.Mean(), w.StdDev(), n, 1<<40, 0.95); iv.Low <= 0 && 0 <= iv.High {
			coveredT++
		}
	}
	if rate := float64(coveredT) / reps; rate < 0.93 {
		t.Errorf("t coverage = %.3f, want ≈0.95", rate)
	}
}
