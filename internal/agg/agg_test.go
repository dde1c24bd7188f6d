package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spear/internal/stats"
)

func TestOpString(t *testing.T) {
	wants := map[Op]string{
		Count: "count", Sum: "sum", Mean: "mean", Min: "min", Max: "max",
		Variance: "variance", StdDev: "stddev", Percentile: "percentile",
	}
	for op, want := range wants {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(99).String(); got != "op(99)" {
		t.Errorf("unknown op = %q", got)
	}
}

func TestFuncValidate(t *testing.T) {
	if err := (Func{Op: Mean}).Validate(); err != nil {
		t.Errorf("mean: %v", err)
	}
	if err := (Func{Op: Percentile, P: 0.95}).Validate(); err != nil {
		t.Errorf("p95: %v", err)
	}
	if err := (Func{Op: Percentile, P: 1.5}).Validate(); err == nil {
		t.Error("P=1.5 accepted")
	}
	if err := (Func{Op: 42}).Validate(); err == nil {
		t.Error("bad op accepted")
	}
}

func TestFuncClass(t *testing.T) {
	tests := []struct {
		f     Func
		class Class
		incr  bool
	}{
		{Func{Op: Count}, Distributive, true},
		{Func{Op: Sum}, Distributive, true},
		{Func{Op: Min}, Distributive, true},
		{Func{Op: Max}, Distributive, true},
		{Func{Op: Mean}, Algebraic, true},
		{Func{Op: Variance}, Algebraic, true},
		{Func{Op: StdDev}, Algebraic, true},
		{Median(), Holistic, false},
	}
	for _, tc := range tests {
		if got := tc.f.Class(); got != tc.class {
			t.Errorf("%s.Class = %v, want %v", tc.f, got, tc.class)
		}
		if got := tc.f.Incremental(); got != tc.incr {
			t.Errorf("%s.Incremental = %v", tc.f, got)
		}
		if tc.f.Holistic() != (tc.class == Holistic) {
			t.Errorf("%s.Holistic inconsistent", tc.f)
		}
	}
}

func TestFuncString(t *testing.T) {
	if got := Median().String(); got != "percentile(0.5)" {
		t.Errorf("Median String = %q", got)
	}
	if got := (Func{Op: Sum}).String(); got != "sum" {
		t.Errorf("sum String = %q", got)
	}
}

func TestComputeKnownValues(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	tests := []struct {
		f    Func
		want float64
	}{
		{Func{Op: Count}, 8},
		{Func{Op: Sum}, 40},
		{Func{Op: Mean}, 5},
		{Func{Op: Min}, 2},
		{Func{Op: Max}, 9},
		{Func{Op: Variance}, 32.0 / 7.0},
		{Func{Op: StdDev}, math.Sqrt(32.0 / 7.0)},
		{Median(), 4.5},
		{Func{Op: Percentile, P: 0}, 2},
		{Func{Op: Percentile, P: 1}, 9},
	}
	for _, tc := range tests {
		got := tc.f.Compute(vals)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s.Compute = %v, want %v", tc.f, got, tc.want)
		}
	}
	// Compute must not mutate its input (percentile sorts a copy).
	in := []float64{3, 1, 2}
	Median().Compute(in)
	if in[0] != 3 {
		t.Error("Compute mutated input")
	}
}

func TestComputeEmpty(t *testing.T) {
	for _, f := range []Func{{Op: Count}, {Op: Sum}, {Op: Mean}, {Op: Min}, Median()} {
		if got := f.Compute(nil); got != 0 {
			t.Errorf("%s.Compute(nil) = %v, want 0", f, got)
		}
	}
}

func TestFromWelford(t *testing.T) {
	var w stats.Welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.Add(x)
	}
	tests := []struct {
		f    Func
		want float64
		ok   bool
	}{
		{Func{Op: Count}, 4, true},
		{Func{Op: Sum}, 10, true},
		{Func{Op: Mean}, 2.5, true},
		{Func{Op: Min}, 1, true},
		{Func{Op: Max}, 4, true},
		{Func{Op: Variance}, 5.0 / 3.0, true},
		{Func{Op: StdDev}, math.Sqrt(5.0 / 3.0), true},
		{Median(), 0, false},
	}
	for _, tc := range tests {
		got, ok := tc.f.FromWelford(&w)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s.FromWelford = (%v, %v), want (%v, %v)", tc.f, got, ok, tc.want, tc.ok)
		}
	}
}

// Property: for every op, FromWelford over the full data agrees with
// Compute over the full data.
func TestFromWelfordMatchesCompute(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	fs := []Func{{Op: Count}, {Op: Sum}, {Op: Mean}, {Op: Min}, {Op: Max}, {Op: Variance}, {Op: StdDev}}
	f := func(n uint8) bool {
		size := int(n%50) + 1
		vals := make([]float64, size)
		var w stats.Welford
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
			w.Add(vals[i])
		}
		for _, fn := range fs {
			inc, ok := fn.FromWelford(&w)
			if !ok {
				return false
			}
			exact := fn.Compute(vals)
			if math.Abs(inc-exact) > 1e-6*math.Max(1, math.Abs(exact)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimate(t *testing.T) {
	sample := []float64{10, 20, 30}
	// Count reports the window size, not the sample size.
	if got := (Func{Op: Count}).Estimate(sample, 300); got != 300 {
		t.Errorf("count estimate = %v", got)
	}
	// Sum scales the sample mean by N.
	if got := (Func{Op: Sum}).Estimate(sample, 300); got != 20*300 {
		t.Errorf("sum estimate = %v", got)
	}
	// Mean is the plug-in estimate.
	if got := (Func{Op: Mean}).Estimate(sample, 300); got != 20 {
		t.Errorf("mean estimate = %v", got)
	}
	if got := Median().Estimate(sample, 300); got != 20 {
		t.Errorf("median estimate = %v", got)
	}
	if got := (Func{Op: Sum}).Estimate(nil, 300); got != 0 {
		t.Errorf("empty estimate = %v", got)
	}
}

func TestComputeGrouped(t *testing.T) {
	keys := []string{"a", "b", "a", "b", "a"}
	vals := []float64{1, 10, 2, 20, 3}
	got := ComputeGrouped(keys, vals, Func{Op: Mean})
	if got["a"] != 2 || got["b"] != 15 {
		t.Errorf("grouped mean = %v", got)
	}
	got = ComputeGrouped(keys, vals, Func{Op: Sum})
	if got["a"] != 6 || got["b"] != 30 {
		t.Errorf("grouped sum = %v", got)
	}
	got = ComputeGrouped(keys, vals, Median())
	if got["a"] != 2 || got["b"] != 15 {
		t.Errorf("grouped median = %v", got)
	}
	if len(ComputeGrouped(nil, nil, Func{Op: Mean})) != 0 {
		t.Error("empty grouped should be empty")
	}
}

func TestComputeGroupedMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ComputeGrouped([]string{"a"}, nil, Func{Op: Mean})
}

// Property: grouped compute over a holistic op agrees with slicing the
// data per group and computing scalars.
func TestComputeGroupedMatchesScalarSlices(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func(n uint8) bool {
		size := int(n%100) + 1
		keys := make([]string, size)
		vals := make([]float64, size)
		byGroup := map[string][]float64{}
		for i := range keys {
			keys[i] = string(rune('a' + r.Intn(4)))
			vals[i] = r.Float64() * 100
			byGroup[keys[i]] = append(byGroup[keys[i]], vals[i])
		}
		for _, fn := range []Func{{Op: Mean}, {Op: Percentile, P: 0.95}, {Op: Variance}} {
			grouped := ComputeGrouped(keys, vals, fn)
			if len(grouped) != len(byGroup) {
				return false
			}
			for k, vs := range byGroup {
				if math.Abs(grouped[k]-fn.Compute(vs)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkComputeMedian47K(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 47000)
	for i := range vals {
		vals[i] = r.Float64() * 1500
	}
	f := Median()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Compute(vals)
	}
}
