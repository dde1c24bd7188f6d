package stats

import (
	"math"
	"math/rand"
	"testing"
)

var families = []struct {
	name string
	f    Family
}{
	{"mean", Mean}, {"variance", Variance}, {"stddev", StdDev},
	{"quantile", Quantile}, {"exact", Exact}, {"unbounded", Unbounded},
}

// errOrInf is Err with a refusal read as +Inf, the order Need searches.
func errOrInf(f Family, n, N int64, m Moments, conf float64) float64 {
	e, ok := f.Err(n, N, m, conf)
	if !ok {
		return math.Inf(1)
	}
	return e
}

// TestMeanCI: the mean family's interval ȳ ± z·s/√n·√(1 − n/N), relative
// to ȳ.
func TestMeanCI(t *testing.T) {
	// n = N collapses to a point (finite population correction).
	if e, ok := Mean.Err(100, 100, Moments{10, 5}, 0.95); !ok || e != 0 {
		t.Errorf("full sample = %v, %v, want 0", e, ok)
	}
	// Zero variance collapses to a point too.
	if e, _ := Mean.Err(50, 100, Moments{10, 0}, 0.95); e != 0 {
		t.Errorf("zero stddev = %v", e)
	}
	// Standard case: y=100, s=10, n=100, N very large → ±1.96.
	e, _ := Mean.Err(100, 1e9, Moments{100, 10}, 0.95)
	if math.Abs(e-0.0196) > 0.0001 {
		t.Errorf("ε̂ = %v, want ≈ 0.0196", e)
	}
	// FPC shrinks the interval.
	if eFPC, _ := Mean.Err(100, 200, Moments{100, 10}, 0.95); math.Abs(eFPC/e-math.Sqrt(0.5)) > 1e-6 {
		t.Errorf("FPC ratio = %v, want √0.5", eFPC/e)
	}
	// An empty sample bounds nothing.
	if _, ok := Mean.Err(0, 100, Moments{}, 0.95); ok {
		t.Error("empty sample accepted")
	}
	// N unknown (0) drops the FPC rather than collapsing.
	if e0, _ := Mean.Err(100, 0, Moments{100, 10}, 0.95); math.Abs(e0-0.0196) > 0.0001 {
		t.Errorf("no-N ε̂ = %v", e0)
	}
}

// TestIntervalHelpers: relative rebuilds the interval est ± half and
// reads its half-width over |est|.
func TestIntervalHelpers(t *testing.T) {
	if got := relative(10, 2); got != 0.2 {
		t.Errorf("relative = %v, want 0.2", got)
	}
	if got := relative(0, 2); !math.IsInf(got, 1) {
		t.Errorf("zero estimate should give +Inf, got %v", got)
	}
	if got := relative(0, 0); got != 0 {
		t.Errorf("degenerate interval should give 0, got %v", got)
	}
	// The round trip: a half-width below half an ulp of est vanishes.
	if got := relative(1e20, 1); got != 0 {
		t.Errorf("sub-ulp half-width = %v, want 0", got)
	}
}

// TestQuantileRankError: the quantile family is Hoeffding's bound, and
// its Need at (ε, α) = (0.10, 0.95) is the 185 the harness's median
// budget is measured against.
func TestQuantileRankError(t *testing.T) {
	for _, N := range []int64{0, 47_000} {
		if n, ok := Quantile.Need(0.10, N, Moments{}, 0.95); !ok || n != 185 {
			t.Errorf("N=%d: Need(0.10, 0.95) = %d, %v, want 185", N, n, ok)
		}
	}
	// Halving ε takes four times the samples.
	if e, _ := Quantile.Err(185, 0, Moments{}, 0.95); !almostEqual(errOrInf(Quantile, 4*185, 0, Moments{}, 0.95), e/2, 1e-12) {
		t.Errorf("rank error at 4n is not half of %v", e)
	}
	for _, n := range []int64{0, -1} {
		if _, ok := Quantile.Err(n, 0, Moments{}, 0.95); ok {
			t.Errorf("n=%d: an empty sample bounds nothing", n)
		}
	}
	// No finite sample gives certainty.
	if e, _ := Quantile.Err(185, 0, Moments{}, 1); !math.IsInf(e, 1) {
		t.Errorf("rank error at conf=1 = %v, want +Inf", e)
	}
}

// Statistical sanity: ~conf of mean intervals built from random samples
// should cover the true mean. Seeded, with generous slack.
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
		e, _ := Mean.Err(n, N, w.Moments(), conf)
		if math.Abs(w.Mean()-popMean) <= e*math.Abs(w.Mean()) {
			covered++
		}
	}
	rate := float64(covered) / reps
	if rate < 0.90 {
		t.Errorf("coverage = %.3f, want ≥ 0.90 for nominal 0.95", rate)
	}
}

// TestMeanCIAuto: the mean family takes Student's t for 2 ≤ n < 60 and
// the normal deviate otherwise.
func TestMeanCIAuto(t *testing.T) {
	m := Moments{100, 10}
	normal := func(n, N int64) float64 {
		return ZForConfidence(0.95) * 10 / math.Sqrt(float64(n)) * math.Sqrt(1-float64(n)/float64(N)) / 100
	}
	// Large n, and n = 1: the normal interval.
	for _, n := range []int64{1, 60, 500} {
		if e, _ := Mean.Err(n, 10000, m, 0.95); !almostEqual(e, normal(n, 10000), 1e-12) {
			t.Errorf("n=%d: ε̂ %v, want the normal %v", n, e, normal(n, 10000))
		}
	}
	// Small n: t(9, 97.5%) = 2.262 vs z = 1.96: ratio ≈ 1.154.
	if e, _ := Mean.Err(10, 10000, m, 0.95); math.Abs(e/normal(10, 10000)-2.262/1.96) > 0.01 {
		t.Errorf("t/z ratio = %v", e/normal(10, 10000))
	}
	// Full sample collapses.
	if e, _ := Mean.Err(20, 20, Moments{5, 1}, 0.95); e != 0 {
		t.Errorf("full-sample ε̂ = %v", e)
	}
}

// Coverage with a small sample: the t interval must hold ≈95%, where
// the normal interval under-covers. The values sit at 100, not 0: a
// relative bound says nothing about a mean of zero.
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
			w.Add(100 + r.NormFloat64()*3)
		}
		if e, _ := Mean.Err(n, 1<<40, w.Moments(), 0.95); math.Abs(w.Mean()-100) <= e*w.Mean() {
			coveredT++
		}
	}
	if rate := float64(coveredT) / reps; rate < 0.93 {
		t.Errorf("t coverage = %.3f, want ≈0.95", rate)
	}
}

// boundGrid is the (N, moments, α) grid the family properties run over.
func boundGrid(fn func(N int64, m Moments, conf float64)) {
	for _, N := range []int64{0, 1000, 47_000} {
		for _, mean := range []float64{0, 103.04, -103.04} {
			for _, sd := range []float64{0, 0.5, 40} {
				for _, conf := range []float64{0.90, 0.95, 0.99} {
					fn(N, Moments{mean, sd}, conf)
				}
			}
		}
	}
}

// TestFamilyNeedInvertsErr: per family, Err(Need(ε)) ≤ ε < Err(Need(ε)−1),
// and Need finds nothing only where no sample of a window of unknown size
// passes.
func TestFamilyNeedInvertsErr(t *testing.T) {
	for _, fam := range families {
		boundGrid(func(N int64, m Moments, conf float64) {
			for _, eps := range []float64{0.01, 0.05, 0.10, 0.25} {
				n, ok := fam.f.Need(eps, N, m, conf)
				if !ok {
					if N > 0 || errOrInf(fam.f, 1<<61, N, m, conf) <= eps {
						t.Errorf("%s N=%d %+v α=%v ε=%v: Need found nothing", fam.name, N, m, conf, eps)
					}
					continue
				}
				if e := errOrInf(fam.f, n, N, m, conf); e > eps {
					t.Errorf("%s N=%d %+v α=%v: Err(Need(%v) = %d) = %v", fam.name, N, m, conf, eps, n, e)
				}
				if e := errOrInf(fam.f, n-1, N, m, conf); e <= eps {
					t.Errorf("%s N=%d %+v α=%v: Err(Need(%v)−1 = %d) = %v passes", fam.name, N, m, conf, eps, n-1, e)
				}
			}
		})
	}
}

// TestFamilyErrNonIncreasing: Err never grows with n, which Need's search
// relies on. The one exception is the mean's step from n = 1, where
// Student's t has no degree of freedom and the normal deviate stands in
// (a one-value sample has s = 0, so its ε̂ is 0 on real input); Need
// tries n = 1 before it searches.
func TestFamilyErrNonIncreasing(t *testing.T) {
	for _, fam := range families {
		boundGrid(func(N int64, m Moments, conf float64) {
			prev := errOrInf(fam.f, 0, N, m, conf)
			for n := int64(1); n <= 2000; n++ {
				e := errOrInf(fam.f, n, N, m, conf)
				if e > prev && !(fam.name == "mean" && n == 2) {
					t.Errorf("%s N=%d %+v α=%v: Err(%d) = %v > Err(%d) = %v", fam.name, N, m, conf, n, e, n-1, prev)
					return
				}
				prev = e
			}
		})
	}
}
