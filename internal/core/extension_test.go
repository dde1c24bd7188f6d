package core

import (
	"math"
	"math/rand"
	"testing"

	"spear/internal/agg"
	"spear/internal/stats"
	"spear/internal/tuple"
)

func TestCustomFuncValidation(t *testing.T) {
	if err := (agg.CustomFunc{}).Validate(); err == nil {
		t.Error("empty custom func accepted")
	}
	if err := (agg.CustomFunc{Name: "x"}).Validate(); err == nil {
		t.Error("custom func without Compute accepted")
	}
	good := agg.TrimmedMean(0.1)
	if err := good.Validate(); err != nil {
		t.Errorf("TrimmedMean invalid: %v", err)
	}
	if good.String() == "" {
		t.Error("String empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad trim fraction accepted")
		}
	}()
	agg.TrimmedMean(0.6)
}

func TestTrimmedMeanComputation(t *testing.T) {
	tm := agg.TrimmedMean(0.2)
	// 0.2-trim of {1..10}: drop below p20=2.8 and above p80=8.2 →
	// mean of 3..8 = 5.5.
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := tm.Compute(vals, 10); got != 5.5 {
		t.Errorf("trimmed mean = %v, want 5.5", got)
	}
	if got := tm.Compute(nil, 0); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestCustomOpConfigValidation(t *testing.T) {
	tm := agg.TrimmedMean(0.1)
	cfg := mkCfg(agg.Func{}, 100)
	cfg.Custom = &tm
	if err := cfg.validate(); err == nil {
		t.Error("custom op without estimator accepted")
	}
	cfg.ScalarEstimator = MeanLikeEstimator
	if err := cfg.validate(); err != nil {
		t.Errorf("valid custom op rejected: %v", err)
	}
	cfg.KeyBy = tuple.FieldString(0)
	if err := cfg.validate(); err == nil {
		t.Error("grouped custom op accepted")
	}
	cfg.KeyBy = nil
	bad := agg.CustomFunc{Name: "broken"}
	cfg.Custom = &bad
	if err := cfg.validate(); err == nil {
		t.Error("invalid custom func accepted")
	}
}

func TestCustomOpSampledAndExactPaths(t *testing.T) {
	tm := agg.TrimmedMean(0.1)
	mk := func(accept bool) *ScalarManager {
		cfg := mkCfg(agg.Func{}, 500)
		cfg.Custom = &tm
		cfg.ScalarEstimator = func(s ScalarState) (float64, bool) {
			if len(s.Sample) == 0 {
				return math.Inf(1), false
			}
			// Reuse the mean CI as a (reasonable) trimmed-mean proxy.
			if !accept {
				return math.Inf(1), false
			}
			est := s.Stats.Mean()
			iv := stats.MeanCI(est, s.Stats.StdDev(), int64(len(s.Sample)), s.N, s.Confidence)
			return stats.RelativeHalfWidth(est, iv), true
		}
		m, err := NewScalarManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	r := rand.New(rand.NewSource(9))
	var vals []float64
	for i := 0; i < 4000; i++ {
		vals = append(vals, 50+r.NormFloat64()*5)
	}
	exact := tm.Compute(vals, int64(len(vals)))

	// Accepting estimator → sampled path, estimate near exact.
	m := mk(true)
	for i, v := range vals {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(v)))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Mode != ModeSampled {
		t.Fatalf("Mode = %v", rs[0].Mode)
	}
	if rel := stats.RelativeError(rs[0].Scalar, exact); rel > 0.10 {
		t.Errorf("sampled trimmed mean %v vs exact %v", rs[0].Scalar, exact)
	}

	// Refusing estimator → exact fallback, bit-exact via the archive.
	m = mk(false)
	for i, v := range vals {
		m.OnTuple(tuple.New(int64(i)%100, tuple.Float(v)))
	}
	rs, err = m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Mode != ModeExact {
		t.Fatalf("fallback Mode = %v", rs[0].Mode)
	}
	if math.Abs(rs[0].Scalar-exact) > 1e-9 {
		t.Errorf("fallback %v vs exact %v", rs[0].Scalar, exact)
	}
}

func TestAIMDBudgetPolicy(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 500)
	cfg.BudgetMin, cfg.BudgetMax = 100, 10000
	m, err := NewScalarManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := func(cur int, r Result) int {
		m.curBudget = cur
		return m.nextBudget(r)
	}
	// Fallback grows.
	if got := next(500, Result{Mode: ModeExact}); got != 1001 {
		t.Errorf("grow = %d, want 1001", got)
	}
	// Comfortable acceleration shrinks.
	if got := next(1000, Result{Mode: ModeSampled, EstError: 0.01}); got != 950 {
		t.Errorf("shrink = %d, want 950", got)
	}
	// Borderline acceleration holds.
	if got := next(1000, Result{Mode: ModeSampled, EstError: 0.09}); got != 1000 {
		t.Errorf("hold = %d", got)
	}
	// Incremental holds.
	if got := next(1000, Result{Mode: ModeIncremental}); got != 1000 {
		t.Errorf("incremental hold = %d", got)
	}
	// Clamping.
	if got := next(9999, Result{Mode: ModeExact}); got != 10000 {
		t.Errorf("max clamp = %d", got)
	}
	if got := next(101, Result{Mode: ModeSampled, EstError: 0.001}); got != 100 {
		t.Errorf("min clamp = %d", got)
	}
	// Bounds that admit no budget are refused.
	for _, b := range [][2]int{{0, 10}, {20, 10}} {
		cfg.BudgetMin, cfg.BudgetMax = b[0], b[1]
		if _, err := NewScalarManager(cfg); err == nil {
			t.Errorf("bounds %v accepted", b)
		}
	}
}

func TestAdaptiveBudgetConverges(t *testing.T) {
	// Start with a hopeless budget of 10 on high-variance data: the
	// policy must grow it until windows accelerate, without operator
	// help — the scenario the paper's offline analysis hard-coded.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 10)
	cfg.DisableIncremental = true
	cfg.BudgetMin, cfg.BudgetMax = 10, 4000
	m, err := NewScalarManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	modes := make([]Mode, 0, 40)
	for w := 0; w < 40; w++ {
		for i := 0; i < 2000; i++ {
			ts := int64(w*100) + int64(i)%100
			m.OnTuple(tuple.New(ts, tuple.Float(100+r.NormFloat64()*60)))
		}
		rs, err := m.OnWatermark(int64((w + 1) * 100))
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rs {
			modes = append(modes, res.Mode)
		}
	}
	if modes[0] != ModeExact {
		t.Fatalf("first window should fall back at b=10, got %v", modes[0])
	}
	// The tail must be accelerating.
	accel := 0
	for _, mode := range modes[len(modes)-10:] {
		if mode == ModeSampled {
			accel++
		}
	}
	if accel < 8 {
		t.Errorf("only %d/10 tail windows accelerated; budget did not converge (modes: %v)", accel, modes)
	}
	if m.curBudget <= 10 {
		t.Errorf("budget never grew: %d", m.curBudget)
	}
}

func TestAdaptiveBudgetShrinksUnderEasyData(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 2000)
	cfg.DisableIncremental = true
	cfg.BudgetMin, cfg.BudgetMax = 50, 2000
	m, _ := NewScalarManager(cfg)
	for w := 0; w < 30; w++ {
		for i := 0; i < 1000; i++ {
			ts := int64(w*100) + int64(i)%100
			m.OnTuple(tuple.New(ts, tuple.Float(100))) // zero variance
		}
		if _, err := m.OnWatermark(int64((w + 1) * 100)); err != nil {
			t.Fatal(err)
		}
	}
	if m.curBudget >= 2000 {
		t.Errorf("budget never shrank on trivial data: %d", m.curBudget)
	}
}
