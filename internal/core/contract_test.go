package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"spear/internal/agg"
	"spear/internal/dataset"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// The accuracy contract, measured: an accelerated window is within ε of
// the exact answer for a fraction α of windows (§4.2). These tests run
// the estimators a ScalarManager answers with over seeded dataset value
// streams and hold every accelerated window against the exact answer for
// the same window, in the metric its estimator claims.

const (
	contractEps     = 0.10
	contractConf    = 0.95
	contractWindows = 2000 // per cell
	contractN       = 1000 // tuples per window
)

// missAllowance is how many ε-misses among n accelerated windows chance
// alone explains when each window misses with probability 1 − α, the
// most the contract allows: the 99.9th percentile of Binomial(n, 1 − α),
// summed exactly. More misses than this fail the contract one-sidedly;
// fewer never do, however few.
func missAllowance(n int, conf float64) int {
	p := 1 - conf
	// pmf(k+1) = pmf(k) · (n−k)/(k+1) · p/(1−p), from pmf(0) = (1−p)^n,
	// kept in logs so that large n does not underflow.
	logPMF, cdf := float64(n)*math.Log1p(-p), 0.0
	for k := 0; k < n; k++ {
		if cdf += math.Exp(logPMF); cdf >= 0.999 {
			return k
		}
		logPMF += math.Log(float64(n-k)) - math.Log(float64(k+1)) + math.Log(p/(1-p))
	}
	return n
}

// valueError is a mean's realized error: relative to the exact value.
func valueError(exact []float64, est float64) float64 {
	var sum float64
	for _, v := range exact {
		sum += v
	}
	mean := sum / float64(len(exact))
	return math.Abs(est-mean) / math.Abs(mean)
}

// rankError is a median's realized error: how far, as a share of the
// window, the ranks est occupies in the sorted exact values lie from
// the median's rank.
func rankError(sorted []float64, est float64) float64 {
	below := sort.SearchFloat64s(sorted, est)
	notAbove := sort.Search(len(sorted), func(i int) bool { return sorted[i] > est })
	mid := float64(len(sorted)) / 2
	switch {
	case float64(below) > mid:
		return (float64(below) - mid) / float64(len(sorted))
	case float64(notAbove) < mid:
		return (mid - float64(notAbove)) / float64(len(sorted))
	}
	return 0
}

// contractValues draws the first contractWindows·contractN values of a
// seeded dataset stream.
func contractValues(t *testing.T, s *dataset.Stream) []float64 {
	t.Helper()
	vals := make([]float64, contractWindows*contractN)
	for i := range vals {
		tp, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended after %d tuples", i)
		}
		vals[i] = s.Value(tp)
	}
	return vals
}

func TestAccuracyContract(t *testing.T) {
	const tuples = contractWindows * contractN
	streams := []struct {
		name string
		vals func(t *testing.T) []float64
	}{
		{"DEC", func(t *testing.T) []float64 {
			return contractValues(t, dataset.DEC(dataset.DECConfig{Tuples: tuples, Seed: 1}))
		}},
		{"GCM", func(t *testing.T) []float64 {
			return contractValues(t, dataset.GCM(dataset.GCMConfig{Tuples: tuples, Seed: 1}))
		}},
	}
	estimators := []struct {
		name   string
		f      agg.Func
		budget int
		// resized is the budget of the resized cell: one whose half still
		// passes the check (after a grow, admissions fill a reservoir
		// slowly), so that its windows accelerate.
		resized int
		err     func(sorted []float64, est float64) float64
	}{
		// The mean CI with finite-population correction, held to the
		// relative value error it bounds.
		{"mean", agg.Func{Op: agg.Mean}, 600, 600, valueError},
		// The quantile budget of Hoeffding's bound (Manku et al.), held
		// to the rank error it bounds.
		{"median", agg.Median(), 200, 400, rankError},
	}
	// A resized cell shrinks every window's reservoir to half the budget
	// 250 tuples in (a seeded uniform down-sample) and grows it back 150
	// tuples later (admissions append toward the budget again): the
	// sample SetBudget leaves behind is held to the same contract.
	resizes := map[int]func(b int) int{
		250: func(b int) int { return b / 2 },
		400: func(b int) int { return b },
	}
	for _, s := range streams {
		vals := s.vals(t)
		for _, e := range estimators {
			t.Run(e.name+"/"+s.name, func(t *testing.T) {
				holdContract(t, vals, e.f, e.budget, e.err, nil)
			})
			if s.name == "DEC" {
				t.Run(e.name+"/"+s.name+"/resized", func(t *testing.T) {
					holdContract(t, vals, e.f, e.resized, e.err, resizes)
				})
			}
		}
	}
}

// holdContract runs one cell of TestAccuracyContract: vals through a
// sampled ScalarManager at budget, which SetBudget moves to resizes[k](budget)
// k tuples into every window, and every accelerated window held to
// realized, its error metric.
func holdContract(t *testing.T, vals []float64, f agg.Func, budget int, realized func([]float64, float64) float64,
	resizes map[int]func(int) int) {
	m, err := NewScalarManager(Config{
		Spec: window.CountSliding(contractN, contractN), Agg: f, Value: tuple.FieldFloat(0),
		// Every window goes through the accuracy check.
		DisableIncremental: true,
		Epsilon:            contractEps, Confidence: contractConf, BudgetTuples: budget,
		Store: storage.NewMemStore(), Key: "contract", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var results []Result
	rows := make([]tuple.Tuple, 0, 512)
	for i, v := range vals {
		rows = append(rows, tuple.New(int64(i), tuple.Float(v)))
		resize := resizes[(i+1)%contractN]
		if len(rows) == cap(rows) || i == len(vals)-1 || resize != nil {
			rs, err := m.OnTupleBatch(rows)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, rs...)
			rows = rows[:0]
		}
		if resize != nil {
			m.SetBudget(resize(budget))
		}
	}
	if len(results) != contractWindows {
		t.Fatalf("%d windows fired, want %d", len(results), contractWindows)
	}
	var accelerated, misses int
	var slack []float64
	exact := make([]float64, contractN)
	for _, r := range results {
		if r.Mode != ModeSampled {
			continue
		}
		accelerated++
		copy(exact, vals[r.Start:r.End])
		slices.Sort(exact)
		e := realized(exact, r.Scalar)
		if e > contractEps {
			misses++
		}
		slack = append(slack, r.EstError/e)
	}
	if accelerated < contractWindows/4 {
		t.Fatalf("only %d of %d windows accelerated at b=%d: too few to hold the contract to", accelerated, contractWindows, budget)
	}
	slices.Sort(slack)
	allow := missAllowance(accelerated, contractConf)
	t.Logf("b=%d: %d/%d windows accelerated, coverage %.4f (%d ε-misses, allowance %d), median slack ε̂/realized %.2f",
		budget, accelerated, contractWindows, 1-float64(misses)/float64(accelerated), misses, allow, slack[len(slack)/2])
	if misses > allow {
		t.Errorf("%d ε-misses among %d accelerated windows, more than the %d chance explains at α = %.2f",
			misses, accelerated, allow, contractConf)
	}
}

func TestMissAllowance(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0},
		{1, 1},    // P(0 misses) = 0.95 < 0.999
		{100, 13}, // Binomial(100, 0.05): P(X ≤ 12) ≈ 0.9981, P(X ≤ 13) ≈ 0.9995
		{500, 41},
		{2000, 131},
	} {
		if got := missAllowance(tc.n, 0.95); got != tc.want {
			t.Errorf("missAllowance(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
