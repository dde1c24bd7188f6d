package spear

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/storage"
)

// TestColumnarIdentity pins the end-to-end columnar contract at the
// public API: a query run with .Columnar(...) must produce exactly the
// results of the same query without it — window values bit-for-bit AND
// the accelerate/exact Mode decision of every window.

// wres is a sink record keyed by worker, since scalar shuffle runs emit
// one result per worker per window.
type wres struct {
	worker int
	r      Result
}

func collectRun(t *testing.T, q *Query) []wres {
	t.Helper()
	var mu sync.Mutex
	var out []wres
	if _, err := q.Run(func(worker int, r Result) {
		mu.Lock()
		out = append(out, wres{worker, r})
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].worker != out[j].worker {
			return out[i].worker < out[j].worker
		}
		return out[i].r.Start < out[j].r.Start
	})
	return out
}

func sameWres(t *testing.T, row, col []wres) {
	t.Helper()
	if len(row) != len(col) {
		t.Fatalf("result count: row=%d columnar=%d", len(row), len(col))
	}
	for i := range row {
		a, b := row[i], col[i]
		if a.worker != b.worker || a.r.Start != b.r.Start || a.r.End != b.r.End {
			t.Fatalf("result %d: worker %d window [%d,%d) vs worker %d window [%d,%d)",
				i, a.worker, a.r.Start, a.r.End, b.worker, b.r.Start, b.r.End)
		}
		if a.r.Mode != b.r.Mode {
			t.Fatalf("worker %d window @%d: Mode %v vs %v", a.worker, a.r.Start, a.r.Mode, b.r.Mode)
		}
		if a.r.N != b.r.N || a.r.SampleN != b.r.SampleN {
			t.Fatalf("worker %d window @%d: n=%d/%d vs n=%d/%d",
				a.worker, a.r.Start, a.r.SampleN, a.r.N, b.r.SampleN, b.r.N)
		}
		if math.Float64bits(a.r.Scalar) != math.Float64bits(b.r.Scalar) {
			t.Fatalf("worker %d window @%d: scalar %v vs %v", a.worker, a.r.Start, a.r.Scalar, b.r.Scalar)
		}
		if math.Float64bits(a.r.EstError) != math.Float64bits(b.r.EstError) {
			t.Fatalf("worker %d window @%d: ε̂ %v vs %v", a.worker, a.r.Start, a.r.EstError, b.r.EstError)
		}
		if len(a.r.Groups) != len(b.r.Groups) {
			t.Fatalf("worker %d window @%d: %d groups vs %d", a.worker, a.r.Start, len(a.r.Groups), len(b.r.Groups))
		}
		for g, av := range a.r.Groups {
			if bv, ok := b.r.Groups[g]; !ok || math.Float64bits(av) != math.Float64bits(bv) {
				t.Fatalf("worker %d window @%d group %q: %v vs %v", a.worker, a.r.Start, g, av, bv)
			}
		}
	}
}

func TestColumnarIdentity(t *testing.T) {
	sec := int64(time.Second)

	t.Run("scalar mean", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		var in []Tuple
		for i := 0; i < 5000; i++ {
			in = append(in, NewTuple(int64(i)*sec, Float(r.NormFloat64()*100)))
		}
		build := func() *Query {
			return NewQuery("colmean").
				Source(FromSlice(in)).
				TumblingWindow(200*time.Second).
				Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
				BudgetTuples(50).Error(0.10, 0.95).Seed(9)
		}
		sameWres(t, collectRun(t, build()), collectRun(t, build().Columnar(0)))
	})

	t.Run("scalar median both modes", func(t *testing.T) {
		// Window sizes straddle the budget so the run mixes sampled
		// (fully-sampled small windows) and exact-fallback (large
		// windows) decisions; both must match bit-for-bit.
		r := rand.New(rand.NewSource(5))
		var in []Tuple
		for w := 0; w < 8; w++ {
			n := 50
			if w%2 == 1 {
				n = 600
			}
			for i := 0; i < n; i++ {
				in = append(in, NewTuple((int64(w*100)+int64(i)%100)*sec, Float(r.NormFloat64()*50)))
			}
		}
		build := func() *Query {
			return NewQuery("colmedian").
				Source(FromSlice(in)).
				TumblingWindow(100*time.Second).
				Median(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
				BudgetTuples(80).Error(0.10, 0.95).Seed(4)
		}
		rowRes := collectRun(t, build())
		sameWres(t, rowRes, collectRun(t, build().Columnar(0)))
		sampled, exact := 0, 0
		for _, w := range rowRes {
			switch w.r.Mode.String() {
			case "sampled":
				sampled++
			case "exact":
				exact++
			}
		}
		if sampled == 0 || exact == 0 {
			t.Fatalf("mode mix sampled=%d exact=%d, want both", sampled, exact)
		}
	})

	t.Run("scalar parallel 4", func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		var in []Tuple
		for i := 0; i < 8000; i++ {
			in = append(in, NewTuple(int64(i/4)*sec, Float(r.Float64()*1000)))
		}
		build := func() *Query {
			return NewQuery("colpar").
				Source(FromSlice(in)).
				SlidingWindow(400*time.Second, 100*time.Second).
				Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
				DisableIncremental().
				BudgetTuples(120).Error(0.10, 0.95).Seed(2).Parallelism(4)
		}
		sameWres(t, collectRun(t, build()), collectRun(t, build().Columnar(0)))
	})

	t.Run("grouped known groups", func(t *testing.T) {
		r := rand.New(rand.NewSource(13))
		groups := []string{"ny", "sf", "la"}
		var in []Tuple
		for i := 0; i < 6000; i++ {
			v := 500 + r.NormFloat64()
			if (i/1500)%2 == 1 {
				v = math.Abs(r.NormFloat64()) * math.Pow(10, float64(r.Intn(7)))
			}
			in = append(in, NewTuple(int64(i/6)*sec, Str(groups[i%3]), Float(v)))
		}
		build := func() *Query {
			return NewQuery("colgrouped").
				Source(FromSlice(in)).
				TumblingWindow(250*time.Second).
				GroupBy(func(t Tuple) string { return t.Vals[0].AsString() }).
				Mean(func(t Tuple) float64 { return t.Vals[1].AsFloat() }).
				DisableIncremental().
				KnownGroups(3).
				BudgetTuples(300).Error(0.10, 0.95).Seed(6)
		}
		sameWres(t, collectRun(t, build()), collectRun(t, build().Columnar(1)))
	})

	t.Run("grouped undeclared key", func(t *testing.T) {
		// A grouped query has no columnar lane: Columnar(1) names the
		// value field only, and no field is taken for the key. Field 0
		// agrees with the key on each batch's first row ("a") and not
		// on "A" or "B", so a lane that read field 0 as the key would
		// split the two groups in four.
		keys := []string{"a", "A", "b", "B"}
		var in []Tuple
		for i := 0; i < 4000; i++ {
			in = append(in, NewTuple(int64(i/4)*sec, Str(keys[i%4]), Float(float64(i%7))))
		}
		build := func() *Query {
			return NewQuery("colgroupedkey").
				Source(FromSlice(in)).
				TumblingWindow(100*time.Second).
				GroupBy(func(t Tuple) string { return strings.ToLower(t.Vals[0].AsString()) }).
				Mean(func(t Tuple) float64 { return t.Vals[1].AsFloat() }).
				DisableIncremental().
				BudgetTuples(300).Error(0.10, 0.95).Seed(6)
		}
		sameWres(t, collectRun(t, build()), collectRun(t, build().Columnar(1)))
	})

	t.Run("fused map chain", func(t *testing.T) {
		// Maps present: the chain runs at the source on both lanes and
		// hands the worker rows; the columnar worker projects them.
		r := rand.New(rand.NewSource(17))
		var in []Tuple
		for i := 0; i < 6000; i++ {
			in = append(in, NewTuple(int64(i)*sec, Float(r.Float64()*100)))
		}
		build := func() *Query {
			return NewQuery("colfused").
				Source(FromSlice(in)).
				Map(func(t Tuple) (Tuple, bool) { // annotate: shift the measure
					return NewTuple(t.Ts, Float(t.Vals[0].AsFloat()+1)), true
				}).
				Map(func(t Tuple) (Tuple, bool) { // filter: drop small readings
					return t, t.Vals[0].AsFloat() >= 8
				}).
				TumblingWindow(300*time.Second).
				Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
				BudgetTuples(60).Error(0.10, 0.95).Seed(11)
		}
		sameWres(t, collectRun(t, build()), collectRun(t, build().Columnar(0)))
	})
}

// TestColumnarIdentityCrashRecover runs the checkpoint stop-and-resume
// cycle with the columnar lane enabled and a filtering Map ahead of the
// window — barriers cut between the runs the chain fills — and requires
// the union of both legs to equal a plain row-path reference run
// bit-for-bit.
func TestColumnarIdentityCrashRecover(t *testing.T) {
	const (
		n      = 2000
		winSec = 100
		stopAt = 1100
	)
	sec := int64(time.Second)
	mk := func(lo, hi int) []Tuple {
		var ts []Tuple
		for i := lo; i < hi; i++ {
			ts = append(ts, NewTuple(int64(i)*sec, Float(float64(i%50))))
		}
		return ts
	}
	build := func(src Source, store storage.SpillStore) *Query {
		return NewQuery("colckpt").
			Source(src).
			Map(func(t Tuple) (Tuple, bool) { return t, t.Vals[0].AsFloat() != 13 }).
			TumblingWindow(winSec*time.Second).
			Median(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
			BudgetTuples(64).
			Error(0.10, 0.95).
			Seed(7).
			SpillStore(store)
	}

	// Row-path reference, uninterrupted, no columnar.
	ref := &sinkBuf{}
	if _, err := build(FromSlice(mk(0, n)), storage.NewMemStore()).Run(ref.add); err != nil {
		t.Fatal(err)
	}
	refRes := ref.sorted()
	if len(refRes) != n/winSec {
		t.Fatalf("reference: %d windows, want %d", len(refRes), n/winSec)
	}

	// Columnar leg 1 dies after stopAt tuples; leg 2 recovers.
	store := storage.NewMemStore()
	leg1 := &sinkBuf{}
	if _, err := build(FromSlice(mk(0, stopAt)), store).
		Columnar(0).
		CheckpointEvery(400, 0).
		Run(leg1.add); err != nil {
		t.Fatal(err)
	}
	leg2 := &sinkBuf{}
	if _, err := build(FromSlice(mk(0, n)), store).
		Columnar(0).
		CheckpointEvery(400, 0).
		Recover().
		Run(leg2.add); err != nil {
		t.Fatal(err)
	}
	if len(leg2.sorted()) >= len(refRes) {
		t.Fatalf("leg 2 emitted %d windows; recovery did not skip the prefix", len(leg2.sorted()))
	}

	merged := map[int64]Result{}
	for _, r := range leg1.sorted() {
		merged[r.Start] = r
	}
	for _, r := range leg2.sorted() {
		if prev, dup := merged[r.Start]; dup && (prev.Scalar != r.Scalar || prev.Mode != r.Mode) {
			t.Errorf("window @%d diverged across legs: %+v vs %+v", r.Start, prev, r)
		}
		merged[r.Start] = r
	}
	if len(merged) != len(refRes) {
		t.Fatalf("merged %d windows, want %d", len(merged), len(refRes))
	}
	for _, w := range refRes {
		g, ok := merged[w.Start]
		if !ok {
			t.Errorf("window @%d missing from merged output", w.Start)
			continue
		}
		if math.Float64bits(g.Scalar) != math.Float64bits(w.Scalar) ||
			g.N != w.N || g.SampleN != w.SampleN || g.Mode != w.Mode {
			t.Errorf("window @%d: columnar %+v, row reference %+v", w.Start, g, w)
		}
	}
}
