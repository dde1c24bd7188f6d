package spear

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"spear/internal/core"
	"spear/internal/leakcheck"
	"spear/internal/spe"
	"spear/internal/storage"
)

// TestFileStoreFallbackEndToEnd drives the full exact-fallback path
// through a disk-backed secondary storage: tuples are archived to
// files, the accuracy check fails, and the window is read back and
// processed exactly.
func TestFileStoreFallbackEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	fs, err := storage.NewFileStore(filepath.Join(dir, "spill"))
	if err != nil {
		t.Fatal(err)
	}
	var in []Tuple
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := float64(i%97) * math.Pow(10, float64(i%5)) // wild variance
		sum += v
		in = append(in, NewTuple(int64(i%1000), Float(v)))
	}
	sink := &sinkBuf{}
	_, err = NewQuery("disk").
		Source(FromSlice(in)).
		TumblingWindow(1000 * time.Nanosecond).
		Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		DisableIncremental().
		BudgetTuples(20).
		SpillStore(fs).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	r := sink.res[0]
	if r.Mode != core.ModeExact || !r.FetchedFromStore {
		t.Fatalf("expected disk fallback, got %+v", r)
	}
	exact := sum / n
	if math.Abs(r.Scalar-exact) > 1e-9*exact {
		t.Errorf("disk-recovered mean %v vs %v", r.Scalar, exact)
	}
	if fs.Stats().Gets == 0 || fs.Stats().BytesFetched == 0 {
		t.Error("file store never read")
	}
}

// TestOutOfOrderAccuracy checks that disorder within the watermark lag
// neither loses tuples nor breaks the accuracy guarantee.
func TestOutOfOrderAccuracy(t *testing.T) {
	leakcheck.Check(t)
	mk := func() []Tuple {
		var in []Tuple
		state := int64(7)
		for i := 0; i < 60000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			v := 500 + float64(state%1000)/2
			in = append(in, NewTuple(int64(i), Float(v)))
		}
		return in
	}
	run := func(src Source, backend Backend) map[int64]Result {
		out := map[int64]Result{}
		sink := func(_ int, r Result) { out[r.Start] = r }
		q := NewQuery("ooo").
			Source(src).
			TumblingWindow(10000*time.Nanosecond).
			Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
			DisableIncremental().
			BudgetTuples(2000).
			WatermarkEvery(10000*time.Nanosecond, 200*time.Nanosecond).
			WithBackend(backend)
		if _, err := q.Run(sink); err != nil {
			t.Fatal(err)
		}
		return out
	}
	exact := run(FromSlice(mk()), BackendExact)
	disordered := run(spe.NewDisorderSpout(FromSlice(mk()), 100, 3), BackendSPEAr)
	if len(disordered) == 0 {
		t.Fatal("no windows")
	}
	for start, r := range disordered {
		e, ok := exact[start]
		if !ok {
			continue
		}
		if r.N != e.N {
			t.Errorf("window %d: N=%d vs exact %d (tuples lost under disorder)", start, r.N, e.N)
		}
		if rel := math.Abs(r.Scalar-e.Scalar) / e.Scalar; rel > 0.10 {
			t.Errorf("window %d: error %.3f", start, rel)
		}
	}
}

// TestEveryAggregateEndToEnd drives each built-in aggregate through the
// whole engine and checks it against a directly computed reference.
func TestEveryAggregateEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	var in []Tuple
	vals := make([]float64, 0, 5000)
	state := int64(99)
	for i := 0; i < 5000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		v := float64((state%1000)+1000) / 100 // 0.01 .. 20-ish, positive
		if v < 0 {
			v = -v
		}
		vals = append(vals, v)
		in = append(in, NewTuple(int64(i), Float(v)))
	}
	var mean, m2 float64
	min, max := vals[0], vals[0]
	for i, v := range vals {
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	variance := m2 / float64(len(vals)-1)

	cases := []struct {
		name  string
		build func(*Query) *Query
		want  float64
		tol   float64
	}{
		{"count", func(q *Query) *Query { return q.Count() }, 5000, 0},
		{"sum", func(q *Query) *Query {
			return q.Sum(func(t Tuple) float64 { return t.Vals[0].AsFloat() })
		}, mean * 5000, 1e-9},
		{"mean", func(q *Query) *Query {
			return q.Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() })
		}, mean, 1e-9},
		{"min", func(q *Query) *Query {
			return q.Min(func(t Tuple) float64 { return t.Vals[0].AsFloat() })
		}, min, 0},
		{"max", func(q *Query) *Query {
			return q.Max(func(t Tuple) float64 { return t.Vals[0].AsFloat() })
		}, max, 0},
		{"variance", func(q *Query) *Query {
			return q.Variance(func(t Tuple) float64 { return t.Vals[0].AsFloat() })
		}, variance, 1e-9},
		{"stddev", func(q *Query) *Query {
			return q.StdDev(func(t Tuple) float64 { return t.Vals[0].AsFloat() })
		}, math.Sqrt(variance), 1e-9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &sinkBuf{}
			q := NewQuery(tc.name).
				Source(FromSlice(in)).
				TumblingWindow(5000 * time.Nanosecond).
				BudgetTuples(100)
			if _, err := tc.build(q).Run(sink.add); err != nil {
				t.Fatal(err)
			}
			if len(sink.res) != 1 {
				t.Fatalf("%d windows", len(sink.res))
			}
			r := sink.res[0]
			// All non-holistic: incremental path → exact results.
			if r.Mode != core.ModeIncremental {
				t.Errorf("Mode = %v", r.Mode)
			}
			if math.Abs(r.Scalar-tc.want) > tc.tol*math.Max(1, math.Abs(tc.want)) {
				t.Errorf("%s = %v, want %v", tc.name, r.Scalar, tc.want)
			}
		})
	}
}

// TestSeedDeterminism: identical queries with identical seeds produce
// identical results, tuple for tuple.
func TestSeedDeterminism(t *testing.T) {
	leakcheck.Check(t)
	mk := func() []Tuple {
		var in []Tuple
		state := int64(5)
		for i := 0; i < 30000; i++ {
			state = state*2862933555777941757 + 3037000493
			in = append(in, NewTuple(int64(i%1000), Float(float64(state%10000))))
		}
		return in
	}
	run := func() []Result {
		sink := &sinkBuf{}
		_, err := NewQuery("det").
			Source(FromSlice(mk())).
			TumblingWindow(1000 * time.Nanosecond).
			Median(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
			BudgetTuples(300).
			Seed(42).
			Run(sink.add)
		if err != nil {
			t.Fatal(err)
		}
		return sink.sorted()
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Scalar != b[i].Scalar || a[i].Mode != b[i].Mode || a[i].EstError != b[i].EstError {
			t.Errorf("window %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestLateDroppedSurfacesInSummary checks late-tuple accounting reaches
// the run summary (and with it spear_worker_late_dropped_total) on every
// manager a query can run on: the buffered grouped path and the two
// baselines used to drop late tuples without counting them. Admitted
// and dropped tuples add up to the tuples delivered.
func TestLateDroppedSurfacesInSummary(t *testing.T) {
	leakcheck.Check(t)
	in := []Tuple{
		NewTuple(int64(50*time.Second), Float(1), Str("g")),
		NewTuple(int64(200*time.Second), Float(1), Str("g")), // advances watermark far
		NewTuple(int64(10*time.Second), Float(99), Str("g")), // hopelessly late
		NewTuple(int64(201*time.Second), Float(1), Str("g")),
		NewTuple(int64(20*time.Second), Float(99), Str("h")), // and again
	}
	value := func(t Tuple) float64 { return t.Vals[0].AsFloat() }
	key := func(t Tuple) string { return t.Vals[1].AsString() }
	kinds := map[string]func(q *Query) *Query{
		"scalar":         func(q *Query) *Query { return q.Mean(value) },
		"grouped":        func(q *Query) *Query { return q.GroupBy(key).Mean(value) },
		"grouped-known":  func(q *Query) *Query { return q.GroupBy(key).KnownGroups(2).Mean(value) },
		"exact":          func(q *Query) *Query { return q.Mean(value).WithBackend(BackendExact) },
		"exact-grouped":  func(q *Query) *Query { return q.GroupBy(key).Mean(value).WithBackend(BackendExact) },
		"incremental":    func(q *Query) *Query { return q.Mean(value).WithBackend(BackendIncremental) },
		"scalar-batch-1": func(q *Query) *Query { return q.Mean(value).BatchSize(1) },
	}
	for name, shape := range kinds {
		t.Run(name, func(t *testing.T) {
			sum, err := shape(NewQuery("late").
				Source(FromSlice(in)).
				TumblingWindow(30*time.Second)).
				WatermarkEvery(30*time.Second, 0).
				Run(func(int, Result) {})
			if err != nil {
				t.Fatal(err)
			}
			if sum.LateDropped != 2 || sum.TuplesIn != 3 {
				t.Errorf("LateDropped = %d, TuplesIn = %d; want 2 dropped and 3 admitted of %d delivered", sum.LateDropped, sum.TuplesIn, len(in))
			}
		})
	}
}

// TestHugeParallelismSmallStream: more workers than tuples must not
// deadlock or lose data.
func TestHugeParallelismSmallStream(t *testing.T) {
	leakcheck.Check(t)
	in := []Tuple{NewTuple(1, Float(5)), NewTuple(2, Float(7))}
	sink := &sinkBuf{}
	_, err := NewQuery("wide").
		Source(FromSlice(in)).
		TumblingWindow(10 * time.Nanosecond).
		Sum(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		Parallelism(16).
		Run(sink.add)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, r := range sink.res {
		total += r.Scalar
	}
	if total != 12 {
		t.Errorf("total = %v, want 12", total)
	}
}
