package spear

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/storage"
)

// ride builds a (route, fare) tuple at second s.
func ride(s int64, route string, fare float64) Tuple {
	return NewTuple(s*int64(time.Second), Str(route), Float(fare))
}

type sinkBuf struct {
	mu  sync.Mutex
	res []Result
}

func (s *sinkBuf) add(_ int, r Result) {
	s.mu.Lock()
	s.res = append(s.res, r)
	s.mu.Unlock()
}

func (s *sinkBuf) sorted() []Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Result(nil), s.res...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func TestQuickstartScalarMedian(t *testing.T) {
	// The README quickstart shape: median packet size over tumbling
	// windows.
	var in []Tuple
	for i := 0; i < 3000; i++ {
		in = append(in, NewTuple(int64(i)*int64(time.Second), Float(float64(i%100))))
	}
	sink := &sinkBuf{}
	sum, err := NewQuery("quickstart").
		Source(FromSlice(in)).
		TumblingWindow(500*time.Second).
		Median(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		BudgetTuples(400).
		Error(0.10, 0.95).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	res := sink.sorted()
	if len(res) != 6 {
		t.Fatalf("%d windows", len(res))
	}
	for _, r := range res {
		// Median of 0..99 cycling is ≈49.5; rank error 10% of a
		// uniform 0..99 spread is ≈10 values.
		if r.Scalar < 35 || r.Scalar > 65 {
			t.Errorf("median = %v", r.Scalar)
		}
		if r.Mode != core.ModeSampled {
			t.Errorf("Mode = %v, want sampled", r.Mode)
		}
	}
	if sum.Windows != 6 || sum.Accelerated != 6 {
		t.Errorf("Summary = %+v", sum)
	}
}

func TestPaperExampleCQ(t *testing.T) {
	// The paper's Fig. 5 CQ: 95th-percentile fare on 15/5-minute
	// sliding windows with budget and error bounds.
	var in []Tuple
	for s := int64(0); s < 3600; s++ {
		in = append(in, ride(s, "r", 10+float64(s%20)))
	}
	sink := &sinkBuf{}
	_, err := NewQuery("rides").
		Source(FromSlice(in)).
		SlidingWindow(15*time.Minute, 5*time.Minute).
		Percentile(func(t Tuple) float64 { return t.Vals[1].AsFloat() }, 0.95).
		BudgetTuples(124_998). // the paper's .budget(1MB)
		Error(0.10, 0.95).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	res := sink.sorted()
	if len(res) == 0 {
		t.Fatal("no windows")
	}
	for _, r := range res {
		if r.Start < 0 || r.End > int64(3600)*int64(time.Second) {
			continue // partial edge windows
		}
		// p95 of 10..29 uniform is ≈29.
		if r.Scalar < 27 || r.Scalar > 30 {
			t.Errorf("p95 = %v", r.Scalar)
		}
	}
}

func TestGroupedQueryAcrossBackends(t *testing.T) {
	var in []Tuple
	truthSum := map[string]float64{}
	truthN := map[string]float64{}
	for i := 0; i < 20000; i++ {
		route := []string{"a", "b", "c", "d"}[i%4]
		fare := 10 + float64(i%4)*5 + float64(i%7)
		truthSum[route] += fare
		truthN[route]++
		in = append(in, ride(int64(i%600), route, fare))
	}
	for _, backend := range []Backend{BackendSPEAr, BackendExact} {
		sink := &sinkBuf{}
		sum, err := NewQuery("fares").
			Source(FromSlice(in)).
			TumblingWindow(600*time.Second).
			GroupBy(func(t Tuple) string { return t.Vals[0].AsString() }).
			Mean(func(t Tuple) float64 { return t.Vals[1].AsFloat() }).
			BudgetTuples(800).
			Error(0.10, 0.95).
			Parallelism(2).
			WithBackend(backend).
			Run(sink.add)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		merged := map[string]float64{}
		for _, r := range sink.res {
			for g, v := range r.Groups {
				merged[g] = v
			}
		}
		if len(merged) != 4 {
			t.Fatalf("%v: %d groups", backend, len(merged))
		}
		for g, v := range merged {
			exact := truthSum[g] / truthN[g]
			tol := 1e-9
			if backend == BackendSPEAr {
				tol = 0.10
			}
			if rel := math.Abs(v-exact) / exact; rel > tol {
				t.Errorf("%v group %s: %v vs %v", backend, g, v, exact)
			}
		}
		if backend == BackendExact && sum.Accelerated != 0 {
			t.Error("exact backend reported acceleration")
		}
	}
}

func TestIncrementalBackend(t *testing.T) {
	var in []Tuple
	for i := 0; i < 1000; i++ {
		in = append(in, NewTuple(int64(i), Float(2)))
	}
	sink := &sinkBuf{}
	sum, err := NewQuery("inc").
		Source(FromSlice(in)).
		TumblingWindow(100 * time.Nanosecond).
		Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		WithBackend(BackendIncremental).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.res) != 10 {
		t.Fatalf("%d windows", len(sink.res))
	}
	for _, r := range sink.res {
		if r.Scalar != 2 || r.Mode != core.ModeIncremental {
			t.Errorf("%+v", r)
		}
	}
	if sum.Accelerated != 10 {
		t.Errorf("Summary = %+v", sum)
	}
	// Incremental rejects holistic ops at Run time.
	_, err = NewQuery("bad").
		Source(FromSlice(in)).
		TumblingWindow(100 * time.Nanosecond).
		Median(func(t Tuple) float64 { return 0 }).
		WithBackend(BackendIncremental).
		Run(func(int, Result) {})
	if err == nil {
		t.Error("incremental median accepted")
	}
}

func TestCountWindowQuery(t *testing.T) {
	var in []Tuple
	for i := 0; i < 1000; i++ {
		in = append(in, NewTuple(int64(i*999), Float(float64(i))))
	}
	sink := &sinkBuf{}
	_, err := NewQuery("count").
		Source(FromSlice(in)).
		CountSlidingWindow(250, 250).
		Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.res) != 4 {
		t.Fatalf("%d count windows", len(sink.res))
	}
	// Count-sliding too.
	sink2 := &sinkBuf{}
	if _, err := NewQuery("count2").
		Source(FromSlice(in)).
		CountSlidingWindow(250, 125).
		Sum(func(t Tuple) float64 { return 1 }).
		Run(sink2.add); err != nil {
		t.Fatal(err)
	}
	if len(sink2.res) < 6 {
		t.Errorf("%d sliding count windows", len(sink2.res))
	}
}

func TestMapStage(t *testing.T) {
	var in []Tuple
	for i := 0; i < 600; i++ {
		in = append(in, NewTuple(int64(i), Float(float64(i))))
	}
	sink := &sinkBuf{}
	_, err := NewQuery("mapped").
		Source(FromSlice(in)).
		Map(func(t Tuple) (Tuple, bool) {
			v := t.Vals[0].AsFloat()
			return NewTuple(t.Ts, Float(v*10)), v < 300 // filter + transform
		}).
		TumblingWindow(600 * time.Nanosecond).
		Max(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.res) != 1 {
		t.Fatalf("%d windows", len(sink.res))
	}
	if sink.res[0].Scalar != 2990 {
		t.Errorf("max = %v, want 2990", sink.res[0].Scalar)
	}
	if sink.res[0].N != 300 {
		t.Errorf("N = %d, want 300 (filter)", sink.res[0].N)
	}
}

func TestKnownGroups(t *testing.T) {
	var in []Tuple
	for i := 0; i < 8000; i++ {
		in = append(in, ride(int64(i%600), []string{"x", "y"}[i%2], 10))
	}
	sink := &sinkBuf{}
	sum, err := NewQuery("known").
		Source(FromSlice(in)).
		TumblingWindow(600 * time.Second).
		GroupBy(func(t Tuple) string { return t.Vals[0].AsString() }).
		KnownGroups(2).
		Mean(func(t Tuple) float64 { return t.Vals[1].AsFloat() }).
		BudgetTuples(200).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accelerated == 0 {
		t.Error("known-groups query did not accelerate")
	}
	for _, r := range sink.res {
		if r.Groups["x"] != 10 || r.Groups["y"] != 10 {
			t.Errorf("constant data should estimate exactly: %v", r.Groups)
		}
	}
}

// TestGroupedMaxIsAnsweredExactly: a sample's extremes carry no bound,
// grouped as scalar, so a grouped Max with its groups known is answered
// exactly, not from the per-group reservoirs (where it read the mean's
// bound and reported its contract met).
func TestGroupedMaxIsAnsweredExactly(t *testing.T) {
	var in []Tuple
	exact := map[string]float64{}
	for i := 0; i < 20000; i++ {
		g := []string{"a", "b"}[i%2]
		v := 100 + math.Sin(float64(i))
		in = append(in, ride(int64(i%600), g, v))
		exact[g] = math.Max(exact[g], v)
	}
	sink := &sinkBuf{}
	if _, err := NewQuery("grouped-max").
		Source(FromSlice(in)).
		TumblingWindow(600 * time.Second).
		GroupBy(func(t Tuple) string { return t.Vals[0].AsString() }).
		KnownGroups(2).
		Max(func(t Tuple) float64 { return t.Vals[1].AsFloat() }).
		BudgetTuples(400).
		Run(sink.add); err != nil {
		t.Fatal(err)
	}
	if len(sink.res) != 1 {
		t.Fatalf("%d results, want 1", len(sink.res))
	}
	r := sink.res[0]
	if r.Mode != core.ModeExact || !reflect.DeepEqual(r.Groups, exact) {
		t.Errorf("Mode %v (ε̂ %v), groups %v; want exact %v", r.Mode, r.EstError, r.Groups, exact)
	}
}

// TestSameSeedRoutesAlike: keyed routing is rooted at the query's seed
// (DESIGN §9.2), so two runs of one grouped query at par 2 with the
// same seed give each worker the same groups, and every (worker,
// window) the same result, values and Mode included.
func TestSameSeedRoutesAlike(t *testing.T) {
	in := distTuples(12, 300, 40)
	run := func() []workerResult {
		got := &workerSink{}
		if _, err := NewQuery("routing").
			Source(FromSlice(in)).
			TumblingWindow(300 * time.Second).
			GroupBy(func(tp Tuple) string { return tp.Vals[1].String() }).
			KnownGroups(40).
			Median(func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }).
			BudgetTuples(96).
			Seed(7).
			Parallelism(2).
			Run(got.add); err != nil {
			t.Fatal(err)
		}
		return got.sorted()
	}
	want := run()
	workers := map[int]bool{}
	for _, r := range want {
		workers[r.Worker] = true
	}
	if len(workers) != 2 {
		t.Fatalf("results from workers %v, want both", workers)
	}
	requireIdentical(t, want, run())
}

// TestCustomEstimators: the estimator CustomAgg takes decides every
// window, and one that refuses forces ModeExact.
func TestCustomEstimators(t *testing.T) {
	var in []Tuple
	for i := 0; i < 500; i++ {
		in = append(in, NewTuple(int64(i), Float(1)))
	}
	refusals := 0
	sink := &sinkBuf{}
	_, err := NewQuery("custom").
		Source(FromSlice(in)).
		TumblingWindow(500*time.Nanosecond).
		CustomAgg(agg.TrimmedMean(0.05), func(t Tuple) float64 { return t.Vals[0].AsFloat() },
			func(s core.ScalarState) (float64, bool) {
				refusals++
				return math.Inf(1), false
			}).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	if refusals == 0 {
		t.Error("custom estimator not invoked")
	}
	if sink.res[0].Mode != core.ModeExact {
		t.Errorf("Mode = %v", sink.res[0].Mode)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	src := FromSlice(nil)
	sink := func(int, Result) {}
	mean := func(t Tuple) float64 { return 0 }

	cases := []struct {
		name string
		q    *Query
	}{
		{"no source", NewQuery("q").TumblingWindow(1).Mean(mean)},
		{"no window", NewQuery("q").Source(src).Mean(mean)},
		{"no agg", NewQuery("q").Source(src).TumblingWindow(1)},
		{"double agg", NewQuery("q").Source(src).TumblingWindow(1).Mean(mean).Sum(mean)},
		{"bad budget", NewQuery("q").Source(src).TumblingWindow(1).Mean(mean).BudgetTuples(-1)},
		{"bad par", NewQuery("q").Source(src).TumblingWindow(1).Mean(mean).Parallelism(0)},
		{"nil group", NewQuery("q").Source(src).TumblingWindow(1).GroupBy(nil).Mean(mean)},
		{"bad known", NewQuery("q").Source(src).TumblingWindow(1).Mean(mean).KnownGroups(0)},
		{"nil map", NewQuery("q").Source(src).Map(nil).TumblingWindow(1).Mean(mean)},
		{"nil value", NewQuery("q").Source(src).TumblingWindow(1).Mean(nil)},
		{"bad eps", NewQuery("q").Source(src).TumblingWindow(1).Mean(mean).Error(2, 0.95)},
		{"negative spill ahead", NewQuery("q").Source(src).TumblingWindow(1).Median(mean).SpillAhead(-1)},
		{"negative watermark lag", NewQuery("q").Source(src).TumblingWindow(1).Mean(mean).WatermarkEvery(time.Second, -time.Millisecond)},
		{"negative watermark period", NewQuery("q").Source(src).TumblingWindow(1).Mean(mean).WatermarkEvery(-time.Second, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.q.Run(sink); err == nil {
				t.Error("invalid query ran")
			}
		})
	}
	if _, err := NewQuery("q").Source(src).TumblingWindow(1).Mean(mean).Run(nil); err == nil {
		t.Error("nil sink accepted")
	}
}

// TestSpillAheadIsInert: SpillAhead(n ≥ 0) changes nothing, with or
// without SpillWorkers — a run with it reproduces a run without it,
// value for value and Mode for Mode.
func TestSpillAheadIsInert(t *testing.T) {
	in := make([]Tuple, 20_000)
	for i := range in {
		in[i] = NewTuple(int64(i), Float(float64((i*2654435761)&1023)))
	}
	run := func(label string, ahead bool) *resultSet {
		t.Helper()
		q := NewQuery(label).Source(FromSlice(in)).
			SlidingWindow(4000*time.Nanosecond, 1000*time.Nanosecond).
			Median(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
			BudgetTuples(64).Seed(3)
		if ahead {
			q.SpillAhead(2)
		}
		res := newResultSet()
		if _, err := q.Run(res.add); err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run("plain", false)
	if len(want.res) == 0 {
		t.Fatal("no window fired")
	}
	want.mustMatch(t, "SpillAhead(2)", run("ahead", true))
}

// TestQueryMethodSet pins the exported *Query methods. A method is added
// to this list only under ROADMAP item 7's rule: an example, a spear-demo
// flag or a test shows a behaviour the default lacks.
func TestQueryMethodSet(t *testing.T) {
	want := []string{
		"AdaptiveBudget", "BatchSize", "BudgetTuples", "CheckpointEvery", "Columnar",
		"Count", "CountSlidingWindow", "CustomAgg", "DisableIncremental",
		"Distribute", "Error", "EstimateGroupedWith", "GroupBy",
		"KnownGroups", "LatencySLO", "Map", "Max", "Mean",
		"Median", "Min", "ObserveWith", "Parallelism", "Percentile",
		"Recover", "Run", "Seed", "ServeShard", "SlidingWindow",
		"Source", "SpillAhead", "SpillStore", "SpillWorkers", "StdDev",
		"Sum", "TumblingWindow", "Variance", "WatermarkEvery", "WithBackend",
	}
	typ := reflect.TypeOf((*Query)(nil))
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("*Query has %d methods %v, want the %d %v", len(got), got, len(want), want)
	}
}

func TestBackendString(t *testing.T) {
	if BackendSPEAr.String() != "spear" || BackendExact.String() != "exact" ||
		BackendIncremental.String() != "incremental" {
		t.Error("backend names wrong")
	}
}

func TestObserveWithWorkerBundles(t *testing.T) {
	ins := NewInstruments()
	var in []Tuple
	for i := 0; i < 300; i++ {
		in = append(in, NewTuple(int64(i), Float(1)))
	}
	_, err := NewQuery("m").
		Source(FromSlice(in)).
		TumblingWindow(100 * time.Nanosecond).
		Sum(func(t Tuple) float64 { return 1 }).
		Parallelism(3).
		ObserveWith(ins).
		Run(func(int, Result) {})
	if err != nil {
		t.Fatal(err)
	}
	// One bundle per window worker, however many parties asked for it by
	// name (the manager factory and the engine's worker loop both do).
	workers := ins.Snapshot(time.Now()).WorkerMetrics
	if len(workers) != 3 {
		t.Errorf("instruments hold %d worker bundles, want 3", len(workers))
	}
	for _, w := range workers {
		if !strings.HasPrefix(w.Name, "m[") {
			t.Errorf("worker name %q", w.Name)
		}
	}
}

// TestCustomSpillStore: a query that can fall back to the exact window
// archives its tuples in the store it was given; a non-holistic one has
// no fallback to fetch and accepts the same option without ever calling
// the store.
func TestCustomSpillStore(t *testing.T) {
	var in []Tuple
	for i := 0; i < 2000; i++ {
		in = append(in, NewTuple(int64(i), Float(float64(i))))
	}
	value := func(t Tuple) float64 { return t.Vals[0].AsFloat() }
	// Windows of 1000 tuples exceed the 512-tuple archive chunk, so
	// the archive must flush chunks into the custom store.
	run := func(name string, agg func(*Query) *Query) storage.Stats {
		t.Helper()
		store := storage.NewMemStore()
		q := NewQuery(name).Source(FromSlice(in)).TumblingWindow(1000 * time.Nanosecond)
		if _, err := agg(q).SpillStore(store).SpillWorkers(2).SpillAhead(2).Run(func(int, Result) {}); err != nil {
			t.Fatal(err)
		}
		return store.Stats()
	}
	if st := run("spill", func(q *Query) *Query { return q.Median(value) }); st.Stores == 0 {
		t.Error("custom store never used (archiving should hit it)")
	}
	if st := run("nospill", func(q *Query) *Query { return q.Mean(value) }); st != (storage.Stats{}) {
		t.Errorf("an incremental query touched the store: %+v", st)
	}
}

// TestExactBackendWithBufferBudget: the exact backend keeps its windows
// in memory whatever the budget. A budget of 248 tuples, far below the
// 1000-tuple window, changes nothing: every sum is exact and the store is never
// called.
func TestExactBackendWithBufferBudget(t *testing.T) {
	var in []Tuple
	for i := 0; i < 2000; i++ {
		in = append(in, NewTuple(int64(i), Float(1)))
	}
	sink := &sinkBuf{}
	store := storage.NewMemStore()
	sum, err := NewQuery("exact-budget").
		Source(FromSlice(in)).
		TumblingWindow(1000 * time.Nanosecond).
		Sum(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		WithBackend(BackendExact).
		BudgetTuples(248).
		SpillStore(store).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sink.res {
		if r.Scalar != 1000 || r.FetchedFromStore {
			t.Errorf("sum = %v fetched = %v, want 1000 from memory", r.Scalar, r.FetchedFromStore)
		}
	}
	if sum.Windows != 2 {
		t.Errorf("windows = %d", sum.Windows)
	}
	if st := store.Stats(); st != (storage.Stats{}) {
		t.Errorf("the exact backend touched its store: %+v", st)
	}
}
