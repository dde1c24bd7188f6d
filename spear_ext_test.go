package spear

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/stats"
)

func TestCustomAggEndToEnd(t *testing.T) {
	var in []Tuple
	for i := 0; i < 20000; i++ {
		v := 100 + float64(i%41) - 20 // uniform-ish around 100
		if i%500 == 0 {
			v = 10_000 // outliers the trimmed mean must shrug off
		}
		in = append(in, NewTuple(int64(i%1000), Float(v)))
	}
	est := core.TrimmedMeanEstimator(0.05)
	sink := &sinkBuf{}
	sum, err := NewQuery("robust").
		Source(FromSlice(in)).
		TumblingWindow(1000*time.Nanosecond).
		CustomAgg(agg.TrimmedMean(0.05), func(t Tuple) float64 { return t.Vals[0].AsFloat() }, est).
		BudgetTuples(2000).
		Error(0.10, 0.95).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Windows != 1 {
		t.Fatalf("windows = %d", sum.Windows)
	}
	r := sink.res[0]
	if r.Mode != core.ModeSampled {
		t.Fatalf("Mode = %v", r.Mode)
	}
	// The outliers are 0.2% of tuples; a 5% trim removes them, so the
	// result must sit near 100, not near the contaminated mean (~120).
	if r.Scalar < 90 || r.Scalar > 110 {
		t.Errorf("trimmed mean = %v, want ≈100", r.Scalar)
	}
}

// TestCustomAggOnBaselines: Storm answers a custom aggregate through its
// function, each window what SPEAr answers exactly, and Inc-Storm, which
// cannot maintain a holistic aggregate, refuses it by name.
func TestCustomAggOnBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var in []Tuple
	for i := 0; i < 3000; i++ {
		in = append(in, NewTuple(int64(i)*int64(time.Millisecond), Float(rng.ExpFloat64()*50)))
	}
	val := func(t Tuple) float64 { return t.Vals[0].AsFloat() }
	refuse := func(core.ScalarState) (float64, bool) { return math.Inf(1), false }
	run := func(b Backend) ([]Result, error) {
		sink := &sinkBuf{}
		_, err := NewQuery("custom").Source(FromSlice(in)).TumblingWindow(time.Second).
			CustomAgg(agg.TrimmedMean(0.05), val, refuse).WithBackend(b).Run(sink.add)
		return sink.sorted(), err
	}
	exact, err := run(BackendSPEAr)
	if err != nil {
		t.Fatal(err)
	}
	storm, err := run(BackendExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 3 || len(storm) != len(exact) {
		t.Fatalf("%d SPEAr and %d Storm windows, want 3", len(exact), len(storm))
	}
	for i, r := range storm {
		if r.Mode != core.ModeExact || r.N != 1000 || math.Float64bits(r.Scalar) != math.Float64bits(exact[i].Scalar) {
			t.Errorf("Storm window %d: %v %v over %d tuples, want SPEAr's exact %v", i, r.Mode, r.Scalar, r.N, exact[i].Scalar)
		}
	}
	if _, err := run(BackendIncremental); err == nil || !strings.Contains(err.Error(), "trimmed") {
		t.Errorf("Inc-Storm given a custom aggregate: %v, want it refused by name", err)
	}
}

func TestCustomAggValidation(t *testing.T) {
	src := FromSlice(nil)
	sink := func(int, Result) {}
	val := func(t Tuple) float64 { return 0 }
	est := func(core.ScalarState) (float64, bool) { return 0, true }

	if _, err := NewQuery("q").Source(src).TumblingWindow(1).
		CustomAgg(agg.TrimmedMean(0.1), val, nil).Run(sink); err == nil {
		t.Error("custom agg without estimator accepted")
	}
	if _, err := NewQuery("q").Source(src).TumblingWindow(1).
		CustomAgg(agg.TrimmedMean(0.1), nil, est).Run(sink); err == nil {
		t.Error("custom agg without value accepted")
	}
	if _, err := NewQuery("q").Source(src).TumblingWindow(1).
		Mean(val).CustomAgg(agg.TrimmedMean(0.1), val, est).Run(sink); err == nil {
		t.Error("double aggregate accepted")
	}
	// Grouped custom ops are rejected at Run.
	if _, err := NewQuery("q").Source(FromSlice([]Tuple{NewTuple(1, Str("k"), Float(1))})).
		TumblingWindow(10).
		GroupBy(func(t Tuple) string { return t.Vals[0].AsString() }).
		CustomAgg(agg.TrimmedMean(0.1), val, est).Run(sink); err == nil {
		t.Error("grouped custom op accepted")
	}
}

func TestAdaptiveBudgetEndToEnd(t *testing.T) {
	var in []Tuple
	rngState := int64(1)
	next := func() float64 { // cheap LCG noise, high variance
		rngState = rngState*6364136223846793005 + 1442695040888963407
		return 100 + float64(rngState%97)
	}
	for w := 0; w < 30; w++ {
		for i := 0; i < 1500; i++ {
			in = append(in, NewTuple(int64(w*1000+i%1000), Float(next())))
		}
	}
	sink := &sinkBuf{}
	sum, err := NewQuery("adaptive").
		Source(FromSlice(in)).
		TumblingWindow(1000*time.Nanosecond).
		Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		DisableIncremental().
		BudgetTuples(10).
		AdaptiveBudget(10, 5000).
		Error(0.05, 0.95).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Windows != 30 {
		t.Fatalf("windows = %d", sum.Windows)
	}
	res := sink.sorted()
	if res[0].Mode != core.ModeExact {
		t.Errorf("first window should fall back, got %v", res[0].Mode)
	}
	tail := res[len(res)-5:]
	for _, r := range tail {
		if r.Mode != core.ModeSampled {
			t.Errorf("tail window [%d,%d) not accelerated: %v", r.Start, r.End, r.Mode)
		}
	}
	if _, err := NewQuery("bad").AdaptiveBudget(0, 5).Source(FromSlice(nil)).
		TumblingWindow(1).Mean(func(Tuple) float64 { return 0 }).
		Run(func(int, Result) {}); err == nil {
		t.Error("invalid adaptive bounds accepted")
	}
}

// TestAdaptiveBudgetFollowsError re-runs one AdaptiveBudget query after
// changing its ε. The budget step compares each window's ε̂ with the ε
// of the run it belongs to, so the second run must equal a fresh query
// built with that ε: values, Modes and the budget of every window. (The
// step used to keep, in a policy value the query shared between runs,
// the ε of the first run that read it.)
func TestAdaptiveBudgetFollowsError(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var in []Tuple
	for w := 0; w < 20; w++ {
		for i := 0; i < 2000; i++ {
			in = append(in, NewTuple(int64(w*1000+i/2), Float(100+r.NormFloat64()*30)))
		}
	}
	build := func(eps float64) *Query {
		return NewQuery("aimdeps").
			TumblingWindow(1000*time.Nanosecond).
			Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
			DisableIncremental().
			BudgetTuples(100).
			AdaptiveBudget(20, 4000).
			Error(eps, 0.95).
			Seed(3)
	}
	run := func(q *Query) []Result {
		sink := &sinkBuf{}
		if _, err := q.Source(FromSlice(in)).Run(sink.add); err != nil {
			t.Fatal(err)
		}
		return sink.sorted()
	}
	q := build(0.02)
	first := run(q)
	second := run(q.Error(0.20, 0.95))
	want := run(build(0.20))
	if reflect.DeepEqual(first, want) {
		t.Fatal("ε 0.02 and 0.20 produce the same windows: the stream does not exercise the budget step")
	}
	if len(second) != len(want) {
		t.Fatalf("%d windows, want %d", len(second), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(second[i], want[i]) {
			t.Fatalf("window %d after Error(0.20): %+v, want %+v", i, second[i], want[i])
		}
	}
}

// TestAdaptiveBudgetNeedsAReader: without LatencySLO, AdaptiveBudget's
// bounds are read only by the per-window step of a SPEAr scalar worker.
// Where nothing reads them the query is refused with the reason, not
// run with the bounds silently ignored; with LatencySLO they bound the
// controller, whatever the query.
func TestAdaptiveBudgetNeedsAReader(t *testing.T) {
	var in []Tuple
	for i := 0; i < 400; i++ {
		in = append(in, NewTuple(int64(i), Str([]string{"a", "b"}[i%2]), Float(float64(i%7))))
	}
	val := func(t Tuple) float64 { return t.Vals[1].AsFloat() }
	key := func(t Tuple) string { return t.Vals[0].AsString() }
	base := func() *Query {
		return NewQuery("adreader").Source(FromSlice(in)).TumblingWindow(100).AdaptiveBudget(10, 100)
	}
	for _, tc := range []struct {
		name   string
		q      *Query
		reason string // "" when the query must run
	}{
		{"scalar", base().Mean(val).DisableIncremental(), ""},
		{"grouped", base().GroupBy(key).Mean(val), "grouped"},
		{"grouped known", base().GroupBy(key).KnownGroups(2).Median(val), "grouped"},
		{"exact backend", base().Median(val).WithBackend(BackendExact), "exact backend"},
		{"incremental backend", base().Mean(val).WithBackend(BackendIncremental), "incremental backend"},
		{"grouped under an SLO", base().GroupBy(key).Mean(val).LatencySLO(time.Hour), ""},
		{"exact backend under an SLO", base().Median(val).WithBackend(BackendExact).LatencySLO(time.Hour), ""},
	} {
		_, err := tc.q.Run(func(int, Result) {})
		switch {
		case tc.reason == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.reason != "" && (err == nil || !strings.Contains(err.Error(), tc.reason)):
			t.Errorf("%s: err = %v, want a refusal naming %q", tc.name, err, tc.reason)
		}
	}
}

// MeanLikeEstimate mirrors core.DefaultScalarEstimate usage from user
// code, sanity-checking the exported hooks.
func TestDefaultEstimateHooks(t *testing.T) {
	var w stats.Welford
	for i := 0; i < 100; i++ {
		w.Add(float64(i))
	}
	s := core.ScalarState{
		Sample: make([]float64, 100), N: 10000, Stats: &w,
		Epsilon: 0.1, Confidence: 0.95, Agg: agg.Func{Op: agg.Mean},
	}
	e1, ok1 := core.DefaultScalarEstimate(s)
	e2, ok2 := core.MeanLikeEstimator(s)
	if ok1 != ok2 || math.Abs(e1-e2) > 1e-12 {
		t.Errorf("DefaultScalarEstimate (%v,%v) != MeanLikeEstimator (%v,%v)", e1, ok1, e2, ok2)
	}
}
