package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/obs"
	"spear/internal/stats"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// mkCfg returns a baseline valid scalar config over a time-tumbling
// window of 100 ticks.
func mkCfg(f agg.Func, budget int) Config {
	return Config{
		Spec:         window.Spec{Domain: window.TimeDomain, Range: 100, Slide: 100},
		Agg:          f,
		Value:        tuple.FieldFloat(0),
		Epsilon:      0.10,
		Confidence:   0.95,
		BudgetTuples: budget,
		Store:        storage.NewMemStore(),
		Key:          "t",
		Seed:         1,
	}
}

// ingestOne hands m one tuple: a run of one.
func ingestOne(m Manager, t tuple.Tuple) ([]Result, error) {
	return m.OnTupleBatch([]tuple.Tuple{t})
}

func feed(t *testing.T, m Manager, vals []float64, tsStep int64) []Result {
	t.Helper()
	var out []Result
	for i, v := range vals {
		rs, err := ingestOne(m, tuple.New(int64(i)*tsStep, tuple.Float(v)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs...)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	base := mkCfg(agg.Func{Op: agg.Mean}, 100)
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad spec", func(c *Config) { c.Spec.Range = 0 }},
		{"bad agg", func(c *Config) { c.Agg = agg.Func{Op: agg.Percentile, P: 7} }},
		{"no value", func(c *Config) { c.Value = nil }},
		{"eps 0", func(c *Config) { c.Epsilon = 0 }},
		{"eps 1", func(c *Config) { c.Epsilon = 1 }},
		{"conf 0", func(c *Config) { c.Confidence = 0 }},
		{"budget 0", func(c *Config) { c.BudgetTuples = 0 }},
		{"no store", func(c *Config) { c.Store = nil }},
		{"neg known", func(c *Config) { c.KnownGroups = -1 }},
		{"known scalar", func(c *Config) { c.KnownGroups = 3 }},
		{"neg chunk", func(c *Config) { c.ArchiveChunk = -1 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if err := cfg.validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	good := base
	if err := good.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.ArchiveChunk != 512 {
		t.Errorf("default chunk = %d", good.ArchiveChunk)
	}
}

func TestManagerConstructorsRejectWrongShape(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 100)
	cfg.KeyBy = tuple.FieldString(0)
	if _, err := NewScalarManager(cfg); err == nil {
		t.Error("ScalarManager accepted a grouped config")
	}
	if _, err := NewIncrementalManager(cfg); err == nil {
		t.Error("IncrementalManager accepted a grouped config")
	}
	scalar := mkCfg(agg.Median(), 100)
	if _, err := NewGroupedManager(scalar); err == nil {
		t.Error("GroupedManager accepted a scalar config")
	}
	if _, err := NewIncrementalManager(scalar); err == nil {
		t.Error("IncrementalManager accepted a holistic agg")
	}
	custom, trim := mkCfg(agg.Func{}, 100), agg.TrimmedMean(0.05)
	custom.Custom, custom.ScalarEstimator = &trim, TrimmedMeanEstimator(0.05)
	if _, err := NewIncrementalManager(custom); err == nil || !strings.Contains(err.Error(), "custom(trimmed-mean") {
		t.Errorf("IncrementalManager given a custom aggregate: %v, want it refused by name", err)
	}
	bad := mkCfg(agg.Func{Op: agg.Mean}, 0)
	if _, err := NewScalarManager(bad); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewExactManager(bad); err == nil {
		t.Error("ExactManager accepted invalid config")
	}
}

func TestScalarIncrementalPath(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 10)
	m, err := NewScalarManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 100 tuples in window [0,100) with values 0..99.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	feed(t, m, vals, 1)
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("%d results", len(rs))
	}
	r := rs[0]
	if r.Mode != ModeIncremental {
		t.Errorf("Mode = %v, want incremental", r.Mode)
	}
	if r.Scalar != 49.5 {
		t.Errorf("mean = %v, want 49.5 (exact)", r.Scalar)
	}
	if r.N != 100 || r.EstError != 0 {
		t.Errorf("N=%d EstError=%v", r.N, r.EstError)
	}
	if !r.Mode.Accelerated() {
		t.Error("incremental should count as accelerated")
	}
}

func TestScalarSampledPathAccelerates(t *testing.T) {
	// Low-variance data, generous budget → sampled result within ε.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 400)
	cfg.DisableIncremental = true
	cfg.Metrics = &obs.Worker{}
	m, err := NewScalarManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		v := 100 + r.NormFloat64()*10
		sum += v
		// All in window [0,100): keep ts inside.
		if _, err := ingestOne(m, tuple.New(int64(i)%100, tuple.Float(v))); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("%d results", len(rs))
	}
	res := rs[0]
	if res.Mode != ModeSampled {
		t.Fatalf("Mode = %v, want sampled", res.Mode)
	}
	if res.SampleN != 400 || res.N != n {
		t.Errorf("SampleN=%d N=%d", res.SampleN, res.N)
	}
	exact := sum / n
	if rel := stats.RelativeError(res.Scalar, exact); rel > 0.10 {
		t.Errorf("realized error %.3f > ε", rel)
	}
	if res.EstError <= 0 || res.EstError > 0.10 {
		t.Errorf("EstError = %v, want in (0, 0.10]", res.EstError)
	}
	if cfg.Metrics.WindowsAccelerated.Load() != 1 {
		t.Error("metrics should count the accelerated window")
	}
}

func TestScalarFallbackToExact(t *testing.T) {
	// Tiny budget + huge variance → the CI check fails and the exact
	// result must come back from secondary storage, bit-exact.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 5)
	cfg.DisableIncremental = true
	cfg.ArchiveChunk = 7 // force multiple chunks
	cfg.Metrics = &obs.Worker{}
	m, err := NewScalarManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	var sum float64
	const n = 500
	for i := 0; i < n; i++ {
		v := math.Abs(r.NormFloat64()) * 1e6 * r.Float64()
		sum += v
		if _, err := ingestOne(m, tuple.New(int64(i)%100, tuple.Float(v))); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeExact {
		t.Fatalf("Mode = %v, want exact", res.Mode)
	}
	if !res.FetchedFromStore {
		t.Error("exact fallback must fetch from S")
	}
	exact := sum / n
	if math.Abs(res.Scalar-exact) > 1e-9*exact {
		t.Errorf("fallback mean = %v, want %v (bit-exact)", res.Scalar, exact)
	}
	if res.N != n || res.SampleN != n {
		t.Errorf("N=%d SampleN=%d", res.N, res.SampleN)
	}
	if cfg.Metrics.EstimationFailures.Load() != 1 {
		t.Error("estimation failure not counted")
	}
}

func TestScalarQuantileBudgetRule(t *testing.T) {
	// ε=0.10, α=0.95 needs n ≥ 185 (Hoeffding). A budget of 150 must
	// refuse acceleration; 400 must accelerate.
	for _, tc := range []struct {
		budget int
		want   Mode
	}{
		{150, ModeExact},
		{400, ModeSampled},
	} {
		cfg := mkCfg(agg.Median(), tc.budget)
		m, err := NewScalarManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(4))
		vals := make([]float64, 3000)
		for i := range vals {
			vals[i] = r.Float64() * 1000
		}
		for i, v := range vals {
			ingestOne(m, tuple.New(int64(i)%100, tuple.Float(v)))
		}
		rs, err := m.OnWatermark(100)
		if err != nil {
			t.Fatal(err)
		}
		res := rs[0]
		if res.Mode != tc.want {
			t.Errorf("budget %d: Mode = %v, want %v", tc.budget, res.Mode, tc.want)
		}
		exact := agg.Median().Compute(vals)
		tol := 1e-9
		if tc.want == ModeSampled {
			tol = 0.25 // rank error ε=10% on uniform data ≈ value error 20% worst case
		}
		if rel := stats.RelativeError(res.Scalar, exact); rel > tol {
			t.Errorf("budget %d: median %v vs exact %v (rel %.3f)", tc.budget, res.Scalar, exact, rel)
		}
	}
}

func TestScalarSmallWindowIsExactViaSample(t *testing.T) {
	// A window smaller than the budget is fully sampled: the
	// "approximate" result is exact with ε̂ = 0.
	cfg := mkCfg(agg.Median(), 1000)
	m, _ := NewScalarManager(cfg)
	vals := []float64{5, 1, 9, 3, 7}
	for i, v := range vals {
		ingestOne(m, tuple.New(int64(i), tuple.Float(v)))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeSampled || res.EstError != 0 {
		t.Errorf("Mode=%v EstError=%v", res.Mode, res.EstError)
	}
	if res.Scalar != 5 {
		t.Errorf("median = %v, want 5", res.Scalar)
	}
}

func TestScalarSlidingWindows(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Sum}, 1000)
	cfg.Spec = window.Spec{Domain: window.TimeDomain, Range: 100, Slide: 50}
	m, _ := NewScalarManager(cfg)
	// Value 1 per tick for ts 0..199 → every full window sums to 100.
	for ts := int64(0); ts < 200; ts++ {
		ingestOne(m, tuple.New(ts, tuple.Float(1)))
	}
	rs, err := m.OnWatermark(200)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, r := range rs {
		if r.Start >= 0 && r.End <= 200 {
			if r.Scalar != 100 {
				t.Errorf("window [%d,%d) sum = %v, want 100", r.Start, r.End, r.Scalar)
			}
			full++
		}
	}
	if full < 3 {
		t.Errorf("only %d full windows fired", full)
	}
}

func TestScalarCountWindows(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 1000)
	cfg.Spec = window.CountSliding(50, 50)
	m, _ := NewScalarManager(cfg)
	var got []Result
	for i := 0; i < 175; i++ {
		rs, err := ingestOne(m, tuple.New(int64(i*37), tuple.Float(float64(i))))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}
	if len(got) != 3 {
		t.Fatalf("fired %d count windows, want 3", len(got))
	}
	// First window holds values 0..49 → mean 24.5.
	if got[0].Scalar != 24.5 || got[0].N != 50 {
		t.Errorf("first window: %+v", got[0])
	}
	// Watermarks are ignored.
	if rs, err := m.OnWatermark(1 << 50); err != nil || rs != nil {
		t.Errorf("count-domain watermark: %v, %v", rs, err)
	}
}

func TestScalarLateTuplesDropped(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 10)
	m, _ := NewScalarManager(cfg)
	ingestOne(m, tuple.New(50, tuple.Float(1)))
	m.OnWatermark(100)
	ingestOne(m, tuple.New(20, tuple.Float(99)))
	if m.LateDropped() != 1 {
		t.Errorf("LateDropped = %d", m.LateDropped())
	}
}

func TestScalarArchiveEviction(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 10)
	store := storage.NewMemStore()
	cfg.Store = store
	cfg.ArchiveChunk = 4
	m, _ := NewScalarManager(cfg)
	for ts := int64(0); ts < 500; ts++ {
		ingestOne(m, tuple.New(ts, tuple.Float(1)))
	}
	if _, err := m.OnWatermark(500); err != nil {
		t.Fatal(err)
	}
	// Windows [0,100)... [400,500) all fired; every pane evicted.
	if keys, _ := store.List(""); len(keys) != 0 {
		t.Errorf("panes survived eviction: %v", keys)
	}
}

func TestScalarMemUsageStaysNearBudget(t *testing.T) {
	// Fig. 7's claim: SPEAr memory is ≈b regardless of window size.
	cfg := mkCfg(agg.Median(), 150)
	cfg.ArchiveChunk = 64
	m, _ := NewScalarManager(cfg)
	for i := 0; i < 50000; i++ {
		ingestOne(m, tuple.New(int64(i)%100, tuple.Float(float64(i))))
	}
	// Budget 150 tuples ≈ 1.2KB; must stay way below the 50K-tuple
	// window (~2MB as tuples).
	if m.BudgetMemUsage() > 20000 {
		t.Errorf("BudgetMemUsage = %d, want ≈ budget-scale", m.BudgetMemUsage())
	}
}

func TestGroupedUnknownGroupsAccelerates(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 500)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	cfg.DisableIncremental = true // exercise the stratified-sampling path
	cfg.Metrics = &obs.Worker{}
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	groups := []string{"g0", "g1", "g2", "g3"}
	exactSum := map[string]float64{}
	exactN := map[string]float64{}
	const n = 8000
	for i := 0; i < n; i++ {
		g := groups[r.Intn(len(groups))]
		v := 50 + 10*float64(g[1]-'0') + r.NormFloat64()*3
		exactSum[g] += v
		exactN[g]++
		if _, err := ingestOne(m, tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(v))); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeSampled {
		t.Fatalf("Mode = %v, want sampled", res.Mode)
	}
	if len(res.Groups) != len(groups) {
		t.Fatalf("R̂ has %d groups, want %d (|R̂|=|R| required)", len(res.Groups), len(groups))
	}
	for g, sum := range exactSum {
		exact := sum / exactN[g]
		if rel := stats.RelativeError(res.Groups[g], exact); rel > 0.10 {
			t.Errorf("group %s: est %v vs exact %v (rel %.3f)", g, res.Groups[g], exact, rel)
		}
	}
	if res.SampleN > 500 {
		t.Errorf("SampleN %d exceeds budget", res.SampleN)
	}
}

func TestGroupedIncrementalFastPath(t *testing.T) {
	// Non-holistic grouped aggregates come straight from the per-group
	// metadata: exact results, ModeIncremental, no sampling error.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 500)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(55))
	sum := map[string]float64{}
	n := map[string]float64{}
	for i := 0; i < 5000; i++ {
		g := []string{"a", "b", "c"}[r.Intn(3)]
		v := r.Float64() * 1e6 // wild variance: irrelevant, result is exact
		sum[g] += v
		n[g]++
		ingestOne(m, tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(v)))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeIncremental {
		t.Fatalf("Mode = %v, want incremental", res.Mode)
	}
	if res.EstError != 0 {
		t.Errorf("EstError = %v", res.EstError)
	}
	for g := range sum {
		exact := sum[g] / n[g]
		if math.Abs(res.Groups[g]-exact) > 1e-9*exact {
			t.Errorf("group %s: %v vs %v (must be exact)", g, res.Groups[g], exact)
		}
	}
}

func TestGroupedRevertsWhenGroupsExceedBudget(t *testing.T) {
	// More distinct groups than budget slots → normal processing
	// (§4.1: "If b can not accommodate enough values, then SPEAr
	// reverts back to normal processing").
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 10)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	m, _ := NewGroupedManager(cfg)
	for i := 0; i < 100; i++ {
		g := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		ingestOne(m, tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(float64(i))))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Mode != ModeExact {
		t.Errorf("Mode = %v, want exact (budget too small for groups)", rs[0].Mode)
	}
	if len(rs[0].Groups) == 0 {
		t.Error("exact grouped result empty")
	}
}

func TestGroupedExactMatchesComputeGrouped(t *testing.T) {
	// Force exact fallback with wild variance and compare with the
	// reference implementation.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 20)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	m, _ := NewGroupedManager(cfg)
	r := rand.New(rand.NewSource(6))
	var keys []string
	var vals []float64
	for i := 0; i < 2000; i++ {
		g := []string{"a", "b", "c"}[r.Intn(3)]
		v := r.Float64() * math.Pow(10, float64(r.Intn(8)))
		keys = append(keys, g)
		vals = append(vals, v)
		ingestOne(m, tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(v)))
	}
	rs, _ := m.OnWatermark(100)
	res := rs[0]
	if res.Mode != ModeExact {
		t.Skipf("variance not wild enough; Mode=%v", res.Mode)
	}
	want := agg.ComputeGrouped(keys, vals, agg.Func{Op: agg.Mean})
	for g, v := range want {
		if math.Abs(res.Groups[g]-v) > 1e-9*math.Abs(v) {
			t.Errorf("group %s: %v vs %v", g, res.Groups[g], v)
		}
	}
}

func TestGroupedKnownGroupsNoScan(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 400)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	cfg.KnownGroups = 4
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	groups := []string{"c0", "c1", "c2", "c3"}
	exactSum := map[string]float64{}
	exactN := map[string]float64{}
	for i := 0; i < 10000; i++ {
		g := groups[r.Intn(4)]
		v := 100 + r.NormFloat64()*5
		exactSum[g] += v
		exactN[g]++
		ingestOne(m, tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(v)))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeSampled {
		t.Fatalf("Mode = %v", res.Mode)
	}
	// Equal split: 4 groups × 100 slots.
	if res.SampleN != 400 {
		t.Errorf("SampleN = %d, want 400", res.SampleN)
	}
	for g := range exactSum {
		exact := exactSum[g] / exactN[g]
		if rel := stats.RelativeError(res.Groups[g], exact); rel > 0.10 {
			t.Errorf("group %s error %.3f", g, rel)
		}
	}
}

func TestGroupedHolistic(t *testing.T) {
	// Grouped percentile: holistic per group, needs per-group strata.
	cfg := mkCfg(agg.Func{Op: agg.Percentile, P: 0.95}, 2000)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	m, _ := NewGroupedManager(cfg)
	r := rand.New(rand.NewSource(8))
	byGroup := map[string][]float64{}
	for i := 0; i < 20000; i++ {
		g := []string{"x", "y"}[r.Intn(2)]
		v := r.Float64() * 100
		byGroup[g] = append(byGroup[g], v)
		ingestOne(m, tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(v)))
	}
	rs, _ := m.OnWatermark(100)
	res := rs[0]
	if res.Mode != ModeSampled {
		t.Fatalf("Mode = %v (budget 2000 ≫ Hoeffding bound per group)", res.Mode)
	}
	for g, vs := range byGroup {
		exact := (agg.Func{Op: agg.Percentile, P: 0.95}).Compute(vs)
		// ε is a rank error; on uniform data value error ≈ rank error.
		if rel := stats.RelativeError(res.Groups[g], exact); rel > 0.15 {
			t.Errorf("group %s: %v vs %v", g, res.Groups[g], exact)
		}
	}
}

func TestGroupedCountDomain(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 100)
	cfg.Spec = window.CountSliding(100, 100)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	m, _ := NewGroupedManager(cfg)
	var got []Result
	for i := 0; i < 250; i++ {
		rs, err := ingestOne(m, tuple.New(int64(i*11), tuple.String_("g"), tuple.Float(2)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}
	if len(got) != 2 {
		t.Fatalf("fired %d windows, want 2", len(got))
	}
	for _, r := range got {
		if r.Groups["g"] != 2 {
			t.Errorf("mean = %v, want 2", r.Groups["g"])
		}
		if r.N != 100 {
			t.Errorf("N = %d", r.N)
		}
	}
}

func TestCustomScalarEstimator(t *testing.T) {
	// A user estimator that always refuses acceleration.
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 1000)
	cfg.DisableIncremental = true
	cfg.ScalarEstimator = func(s ScalarState) (float64, bool) {
		return math.Inf(1), false
	}
	m, _ := NewScalarManager(cfg)
	for i := 0; i < 100; i++ {
		ingestOne(m, tuple.New(int64(i), tuple.Float(5)))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Mode != ModeExact {
		t.Errorf("custom estimator ignored: %v", rs[0].Mode)
	}
	if rs[0].Scalar != 5 {
		t.Errorf("fallback mean = %v", rs[0].Scalar)
	}

	// And one that always accepts with a fixed error.
	cfg2 := mkCfg(agg.Func{Op: agg.Mean}, 10)
	cfg2.DisableIncremental = true
	cfg2.ScalarEstimator = func(s ScalarState) (float64, bool) { return 0.01, true }
	m2, _ := NewScalarManager(cfg2)
	for i := 0; i < 100; i++ {
		ingestOne(m2, tuple.New(int64(i), tuple.Float(5)))
	}
	rs2, _ := m2.OnWatermark(100)
	if rs2[0].Mode != ModeSampled || rs2[0].EstError != 0.01 {
		t.Errorf("custom estimator not used: %+v", rs2[0])
	}
}

func TestCustomGroupedEstimator(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 100)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	cfg.DisableIncremental = true
	called := false
	cfg.GroupedEstimator = func(g GroupedState) (float64, bool) {
		called = true
		if g.N == 0 || g.Groups.Len() == 0 {
			t.Error("estimator got empty state")
		}
		return math.Inf(1), false
	}
	m, _ := NewGroupedManager(cfg)
	for i := 0; i < 50; i++ {
		ingestOne(m, tuple.New(int64(i), tuple.String_("g"), tuple.Float(1)))
	}
	rs, _ := m.OnWatermark(100)
	if !called {
		t.Error("custom grouped estimator never called")
	}
	if rs[0].Mode != ModeExact {
		t.Errorf("Mode = %v", rs[0].Mode)
	}
}

func TestExactManagerMatchesAgg(t *testing.T) {
	cfg := mkCfg(agg.Median(), 1)
	m, err := NewExactManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{9, 1, 5, 3, 7}
	for i, v := range vals {
		ingestOne(m, tuple.New(int64(i), tuple.Float(v)))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Mode != ModeExact || rs[0].Scalar != 5 {
		t.Errorf("exact = %+v", rs[0])
	}
	if rs[0].Mode.Accelerated() {
		t.Error("exact must not count as accelerated")
	}
}

func TestExactManagerGrouped(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Sum}, 1)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	m, _ := NewExactManager(cfg)
	for i := 0; i < 10; i++ {
		g := []string{"a", "b"}[i%2]
		ingestOne(m, tuple.New(int64(i), tuple.String_(g), tuple.Float(1)))
	}
	rs, _ := m.OnWatermark(100)
	if rs[0].Groups["a"] != 5 || rs[0].Groups["b"] != 5 {
		t.Errorf("grouped sums = %v", rs[0].Groups)
	}
}

// TestExactManagerSpill: the exact baseline never spills. A window a
// hundred times its budget stays in memory, and the Store its Config
// carries is never called, DisableIncremental set or not: whether a
// manager archives is its constructor's decision. The buffer holds the
// rows it was handed, so the manager keeps rows; the incremental
// baseline keeps none.
func TestExactManagerSpill(t *testing.T) {
	store := storage.NewMemStore()
	cfg := mkCfg(agg.Func{Op: agg.Sum}, 1)
	cfg.Store, cfg.DisableIncremental = store, true
	sz := tuple.New(0, tuple.Float(0)).MemSize()
	m, err := NewExactManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ingestOne(m, tuple.New(int64(i)%100, tuple.Float(1)))
	}
	if m.bufBytes != 100*sz {
		t.Errorf("buffered %d bytes, want the whole window (%d)", m.bufBytes, 100*sz)
	}
	if inc, err := NewIncrementalManager(cfg); err != nil || !KeepsRows(m) || KeepsRows(inc) {
		t.Errorf("KeepsRows: Storm %v, Inc-Storm %v (%v); want true, false", KeepsRows(m), err == nil && KeepsRows(inc), err)
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Scalar != 100 || rs[0].FetchedFromStore {
		t.Errorf("sum = %v fetched = %v, want 100 from memory", rs[0].Scalar, rs[0].FetchedFromStore)
	}
	if st := store.Stats(); st != (storage.Stats{}) {
		t.Errorf("the exact baseline touched its store: %+v", st)
	}
}

// TestStormProcTimeCarriesItsStagingShare: a Storm window's ProcTime is
// its computation plus an equal share of the trigger's staging scans and
// eviction pass, whether a watermark fires it or, in the count domain,
// the run that completes it. The clock reads 1 ms later at every read
// and the value extractor costs 1 µs: staging reads the clock twice and
// extracts nothing, so a trigger costs 1 ms, and a window of k tuples
// 1 ms + k µs.
func TestStormProcTimeCarriesItsStagingShare(t *testing.T) {
	for _, c := range []struct {
		name string
		spec window.Spec
		ts   []int64
		want []time.Duration // ProcTime per window, in firing order
	}{
		// Two windows of 3 and 5 tuples, one watermark: half a trigger each.
		{"time", window.Spec{Domain: window.TimeDomain, Range: 10, Slide: 10}, []int64{0, 1, 2, 10, 11, 12, 13, 14},
			[]time.Duration{1500*time.Microsecond + 3*time.Microsecond, 1500*time.Microsecond + 5*time.Microsecond}},
		// Two count windows of 4 in one batch, each fired by its run.
		{"count", window.CountSliding(4, 4), []int64{0, 0, 0, 0, 0, 0, 0, 0},
			[]time.Duration{2*time.Millisecond + 4*time.Microsecond, 2*time.Millisecond + 4*time.Microsecond}},
	} {
		t.Run(c.name, func(t *testing.T) {
			now := time.Unix(0, 0)
			cfg := mkCfg(agg.Func{Op: agg.Sum}, 1)
			cfg.Spec, cfg.Metrics = c.spec, &obs.Worker{}
			cfg.Clock = func() time.Time {
				t := now
				now = now.Add(time.Millisecond)
				return t
			}
			cfg.Value = func(tp tuple.Tuple) float64 {
				now = now.Add(time.Microsecond)
				return tp.Vals[0].AsFloat()
			}
			m, err := NewExactManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var rows []tuple.Tuple
			for _, ts := range c.ts {
				rows = append(rows, tuple.New(ts, tuple.Float(1)))
			}
			rs, err := m.OnTupleBatch(rows)
			if err != nil {
				t.Fatal(err)
			}
			more, err := m.OnWatermark(20)
			if rs = append(rs, more...); err != nil || len(rs) != len(c.want) {
				t.Fatalf("%d windows fired (%v), want %d", len(rs), err, len(c.want))
			}
			h := &cfg.Metrics.ProcTime
			if lo, hi := h.Percentile(0), h.Percentile(1); lo != float64(min(c.want[0], c.want[1])) || hi != float64(max(c.want[0], c.want[1])) {
				t.Errorf("ProcTime from %v to %v, want %v", time.Duration(lo), time.Duration(hi), c.want)
			}
		})
	}
}

func TestIncrementalManager(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 1)
	cfg.Metrics = &obs.Worker{}
	m, err := NewIncrementalManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ingestOne(m, tuple.New(int64(i), tuple.Float(float64(i))))
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Scalar != 49.5 || rs[0].Mode != ModeIncremental {
		t.Errorf("%+v", rs[0])
	}
	// Memory is O(active windows), not O(tuples).
	if peak := m.cfg.Metrics.MemBytes.Peak(); peak > 1000 {
		t.Errorf("MemBytes peaked at %d", peak)
	}
	// A late tuple is dropped and must not disturb the next window.
	ingestOne(m, tuple.New(5, tuple.Float(999)))
	ingestOne(m, tuple.New(150, tuple.Float(7)))
	rs, err = m.OnWatermark(200)
	if err != nil || len(rs) != 1 {
		t.Fatalf("window [100,200): %v, %v", rs, err)
	}
	if rs[0].Scalar != 7 {
		t.Errorf("late tuple leaked into mean: %v", rs[0].Scalar)
	}
	// An empty window produces no result.
	if rs, _ := m.OnWatermark(300); rs != nil {
		t.Errorf("empty window fired: %v", rs)
	}
}

func TestIncrementalManagerCountDomain(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Sum}, 1)
	cfg.Spec = window.CountSliding(10, 10)
	m, _ := NewIncrementalManager(cfg)
	var got []Result
	for i := 0; i < 25; i++ {
		rs, _ := ingestOne(m, tuple.New(99999, tuple.Float(1)))
		got = append(got, rs...)
	}
	if len(got) != 2 || got[0].Scalar != 10 {
		t.Errorf("count-domain incremental: %+v", got)
	}
	if rs, _ := m.OnWatermark(1 << 30); rs != nil {
		t.Error("watermark should be ignored in count domain")
	}
}

func TestModeString(t *testing.T) {
	if ModeExact.String() != "exact" || ModeSampled.String() != "sampled" ||
		ModeIncremental.String() != "incremental" {
		t.Error("mode names wrong")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Start: 0, End: 100, Mode: ModeSampled, Scalar: 5, N: 100, SampleN: 10}
	if r.String() == "" {
		t.Error("scalar String empty")
	}
	r.Groups = map[string]float64{"a": 1}
	if r.String() == "" {
		t.Error("grouped String empty")
	}
}

// Statistical acceptance: over many windows, accelerated mean results
// must violate ε no more often than ≈(1−α) with slack.
func TestAccuracyGuaranteeOverWindows(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 1000)
	cfg.DisableIncremental = true
	m, _ := NewScalarManager(cfg)

	exact := map[window.ID]*stats.Welford{}
	r := rand.New(rand.NewSource(42))
	var results []Result
	const windows = 120
	for w := 0; w < windows; w++ {
		base := 200 + 50*math.Sin(float64(w)/5)
		for i := 0; i < 3000; i++ {
			ts := int64(w*100) + int64(i)%100
			v := base + r.NormFloat64()*base // CV = 1
			if v < 0 {
				v = -v
			}
			id, _ := cfg.Spec.Assign(ts)
			if exact[id] == nil {
				exact[id] = &stats.Welford{}
			}
			exact[id].Add(v)
			ingestOne(m, tuple.New(ts, tuple.Float(v)))
		}
		rs, err := m.OnWatermark(int64((w + 1) * 100))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, rs...)
	}
	if len(results) < windows-1 {
		t.Fatalf("only %d results", len(results))
	}
	accelerated, violations := 0, 0
	for _, res := range results {
		if res.Mode != ModeSampled {
			continue
		}
		accelerated++
		ex := exact[res.WindowID].Mean()
		if stats.RelativeError(res.Scalar, ex) > cfg.Epsilon {
			violations++
		}
	}
	if accelerated < windows/2 {
		t.Fatalf("only %d windows accelerated", accelerated)
	}
	// Nominal violation rate ≤ 5%; allow 12% for sampling noise.
	if rate := float64(violations) / float64(accelerated); rate > 0.12 {
		t.Errorf("violation rate %.3f over %d accelerated windows", rate, accelerated)
	}
}

func TestEstimatorDefaults(t *testing.T) {
	// Min/Max cannot be accelerated from a partial sample.
	s := ScalarState{
		Sample: []float64{1, 2, 3}, N: 100,
		Stats: &stats.Welford{}, Epsilon: 0.1, Confidence: 0.95,
		Agg: agg.Func{Op: agg.Min},
	}
	if _, ok := MeanLikeEstimator(s); ok {
		t.Error("min accelerated from partial sample")
	}
	// Count is always exact.
	s.Agg = agg.Func{Op: agg.Count}
	if e, ok := MeanLikeEstimator(s); !ok || e != 0 {
		t.Errorf("count estimator = %v, %v", e, ok)
	}
	// Empty sample refuses.
	if _, ok := MeanLikeEstimator(ScalarState{N: 10, Agg: agg.Func{Op: agg.Mean}, Stats: &stats.Welford{}}); ok {
		t.Error("empty sample accepted")
	}
	if _, ok := QuantileEstimator(ScalarState{N: 10}); ok {
		t.Error("empty quantile sample accepted")
	}
	// Variance needs n ≥ 2.
	s.Agg = agg.Func{Op: agg.Variance}
	s.Sample = []float64{1}
	if _, ok := MeanLikeEstimator(s); ok {
		t.Error("variance from n=1 accepted")
	}
	// StdDev's error is half the variance's.
	var w stats.Welford
	for i := 0; i < 50; i++ {
		w.Add(float64(i))
	}
	sVar := ScalarState{Sample: make([]float64, 50), N: 1000, Stats: &w,
		Confidence: 0.95, Agg: agg.Func{Op: agg.Variance}}
	sStd := sVar
	sStd.Agg = agg.Func{Op: agg.StdDev}
	eVar, _ := MeanLikeEstimator(sVar)
	eStd, _ := MeanLikeEstimator(sStd)
	if math.Abs(eStd-eVar/2) > 1e-12 {
		t.Errorf("stddev error %v, variance %v", eStd, eVar)
	}
}

func TestArchivePaneLifecycle(t *testing.T) {
	store := storage.NewMemStore()
	spec := window.Spec{Domain: window.TimeDomain, Range: 30, Slide: 10}
	a := newArchive(store, "w", spec, 3, false)
	for ts := int64(0); ts < 50; ts++ {
		if err := a.add(tuple.New(ts, tuple.Float(float64(ts)))); err != nil {
			t.Fatal(err)
		}
	}
	// Fetch window [10, 40): must return exactly ts 10..39 including
	// pending unflushed chunks.
	got, err := a.fetch(nil, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("fetched %d, want 30", len(got))
	}
	seen := map[int64]bool{}
	for _, tp := range got {
		if tp.Ts < 10 || tp.Ts >= 40 {
			t.Errorf("fetched out-of-range ts %d", tp.Ts)
		}
		seen[tp.Ts] = true
	}
	if len(seen) != 30 {
		t.Errorf("duplicates or gaps: %d distinct", len(seen))
	}
	// Evict everything before 30 and refetch.
	if err := a.evictBefore(30); err != nil {
		t.Fatal(err)
	}
	got, err = a.fetch(got, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("evicted panes still fetchable: %d tuples", len(got))
	}
	// Empty archive eviction is a no-op.
	b := newArchive(store, "x", spec, 3, false)
	if err := b.evictBefore(100); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveRecyclesUnflushedPanes: a pane smaller than a chunk is
// never flushed — it is buffered until evictBefore drops it — so its
// buffer must come back through the free list, or every pane re-grows
// one by append doubling (≈ 60 B of pointerful garbage a tuple at
// 500 tuples a pane). Once overlap + 2 panes have been through, a pane
// roll + evict round allocates nothing, the accounted memory is the
// live panes' tuples and nothing else, and no buffer holds a stale
// tuple beyond its length.
func TestArchiveRecyclesUnflushedPanes(t *testing.T) {
	const overlap, perPane = 8, 500
	spec := window.Spec{Domain: window.TimeDomain, Range: overlap * perPane, Slide: perPane}
	a := newArchive(storage.NewMemStore(), "w", spec, 512, false)
	rows := make([]tuple.Tuple, perPane)
	pos := make([]int64, perPane)
	for i := range rows {
		rows[i] = tuple.New(0, tuple.Float(float64(i)))
	}
	pane := int64(0)
	round := func() {
		for i := range rows {
			pos[i] = pane*perPane + int64(i)
			rows[i].Ts = pos[i]
		}
		for i := 0; i < perPane; i += 64 {
			j := min(i+64, perPane)
			if err := a.addRun(pane, pos[i:j], rows[i:j]); err != nil {
				t.Fatal(err)
			}
		}
		// What the window closing at this pane's end leaves open.
		if err := a.evictBefore((pane + 2 - overlap) * perPane); err != nil {
			t.Fatal(err)
		}
		pane++
	}
	for i := 0; i < overlap+2; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("%v allocations per pane in the steady state, want 0", allocs)
	}
	held, buffers := 0, 0
	bufs := a.free
	ps, pns := a.panes.keys, a.panes.vals
	for i, pn := range pns {
		if held += len(pn.buf); pn.flushed != 0 {
			t.Errorf("pane %d stored %d chunks; the test is about panes that never are", ps[i], pn.flushed)
		}
		if pn.buf != nil {
			buffers++
			bufs = append(bufs, pn.buf)
		}
	}
	if want := (overlap - 1) * perPane; held != want {
		t.Errorf("%d tuples held, want %d: the %d live panes'", held, want, overlap-1)
	}
	if n := len(a.free) + buffers; n > overlap {
		t.Errorf("%d buffers parked or held, more than the %d panes ever live at once", n, overlap)
	}
	for _, buf := range bufs {
		for i, tp := range buf[len(buf):cap(buf)] {
			if tp.Vals != nil {
				t.Fatalf("a buffer of %d holds a stale tuple at %d beyond its length", len(buf), len(buf)+i)
			}
		}
	}
}

func BenchmarkScalarManagerTuple(b *testing.B) {
	cfg := mkCfg(agg.Median(), 150)
	cfg.Spec = window.Sliding(45*time.Second, 15*time.Second)
	m, _ := NewScalarManager(cfg)
	step := int64(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingestOne(m, tuple.New(int64(i)*step, tuple.Float(float64(i&1023))))
		if i%100000 == 99999 {
			m.OnWatermark(int64(i) * step)
		}
	}
}

// TestMetricsDefaultBundle: a manager built with Config.Metrics unset
// counts into a bundle of its own — the same numbers a caller-supplied
// bundle receives — and produces identical results, values and Mode.
func TestMetricsDefaultBundle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var in []tuple.Tuple
	for i := 0; i < 3000; i++ {
		// Three windows: the heavy tail of the outer two makes a
		// 5-tuple budget fall back to exact processing, the flat middle
		// one is answered from the sample.
		v := math.Abs(r.NormFloat64()) * 1e6 * r.Float64()
		if i/1000 == 1 {
			v = 100 + r.NormFloat64()
		}
		in = append(in, tuple.New(int64(i/10), tuple.String_(fmt.Sprint("g", i%3)), tuple.Float(v)))
	}
	build := map[string]func(cfg Config) (Manager, *Config, error){
		"scalar": func(cfg Config) (Manager, *Config, error) {
			m, err := NewScalarManager(cfg)
			return m, &m.cfg, err
		},
		"grouped": func(cfg Config) (Manager, *Config, error) {
			cfg.KeyBy = tuple.FieldString(0)
			m, err := NewGroupedManager(cfg)
			return m, &m.cfg, err
		},
		"exact": func(cfg Config) (Manager, *Config, error) {
			m, err := NewExactManager(cfg)
			return m, &m.cfg, err
		},
		"incremental": func(cfg Config) (Manager, *Config, error) {
			m, err := NewIncrementalManager(cfg)
			return m, &m.cfg, err
		},
	}
	for name, mk := range build {
		run := func(bundle *obs.Worker) ([]Result, *obs.Worker) {
			cfg := mkCfg(agg.Func{Op: agg.Mean}, 5)
			cfg.Value = tuple.FieldFloat(1)
			cfg.DisableIncremental = name != "incremental"
			cfg.Metrics = bundle
			m, held, err := mk(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var out []Result
			for _, tp := range in {
				rs, err := ingestOne(m, tp)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out = append(out, rs...)
			}
			rs, err := m.OnWatermark(300)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return append(out, rs...), held.Metrics
		}
		given := &obs.Worker{}
		want, held := run(given)
		if held != given {
			t.Errorf("%s: a supplied bundle was replaced", name)
		}
		got, own := run(nil)
		if own == nil {
			t.Fatalf("%s: no default bundle", name)
		}
		if len(want) != 3 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results differ with Metrics unset:\n got %v\nwant %v", name, got, want)
		}
		for _, c := range []struct {
			what      string
			own, give int64
		}{
			{"TuplesIn", own.TuplesIn.Load(), given.TuplesIn.Load()},
			{"WindowsTotal", own.WindowsTotal.Load(), given.WindowsTotal.Load()},
			{"WindowsExact", own.WindowsExact.Load(), given.WindowsExact.Load()},
			{"TuplesProcessedFull", own.TuplesProcessedFull.Load(), given.TuplesProcessedFull.Load()},
		} {
			if c.own != c.give || (c.what == "WindowsTotal" && c.own != 3) {
				t.Errorf("%s: default bundle %s = %d, supplied bundle %d", name, c.what, c.own, c.give)
			}
		}
	}
}
