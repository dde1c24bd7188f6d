package core

import (
	"math"
	"math/rand"
	"testing"

	"spear/internal/agg"
	"spear/internal/obs"
	"spear/internal/stats"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// TestKnownGroupsFallbackFetchesFromStore: a known-groups window whose
// accuracy check fails must be reconstructed bit-exactly from the
// archive (the window was never buffered).
func TestKnownGroupsFallbackFetchesFromStore(t *testing.T) {
	store := storage.NewMemStore()
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 40)
	cfg.Store = store
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	cfg.KnownGroups = 2
	cfg.ArchiveChunk = 16
	cfg.Metrics = &obs.Worker{}
	m, err := NewGroupedManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	sum := map[string]float64{}
	n := map[string]float64{}
	for i := 0; i < 3000; i++ {
		g := []string{"a", "b"}[r.Intn(2)]
		v := math.Abs(r.NormFloat64()) * math.Pow(10, float64(r.Intn(7)))
		sum[g] += v
		n[g]++
		if _, err := m.OnTuple(tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(v))); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := m.OnWatermark(100)
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.Mode != ModeExact || !res.FetchedFromStore {
		t.Fatalf("expected archive fallback, got %+v", res)
	}
	for g := range sum {
		exact := sum[g] / n[g]
		if math.Abs(res.Groups[g]-exact) > 1e-9*exact {
			t.Errorf("group %s: %v vs %v", g, res.Groups[g], exact)
		}
	}
	if cfg.Metrics.EstimationFailures.Load() != 1 {
		t.Error("estimation failure not counted")
	}
	if store.Stats().Gets == 0 {
		t.Error("archive never read")
	}
}

// TestKnownGroupsArchiveEviction: panes of fired windows must be
// deleted from S.
func TestKnownGroupsArchiveEviction(t *testing.T) {
	store := storage.NewMemStore()
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 100)
	cfg.Store = store
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	cfg.KnownGroups = 1
	cfg.ArchiveChunk = 8
	m, _ := NewGroupedManager(cfg)
	for ts := int64(0); ts < 500; ts++ {
		m.OnTuple(tuple.New(ts, tuple.String_("g"), tuple.Float(1)))
	}
	if _, err := m.OnWatermark(500); err != nil {
		t.Fatal(err)
	}
	if keys, _ := store.List(""); len(keys) != 0 {
		t.Errorf("panes survived eviction: %v", keys)
	}
}

// TestKnownGroupsCountDomain: count windows with known groups close on
// arrival and estimate from arrival-built samples.
func TestKnownGroupsCountDomain(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 200)
	cfg.Spec = window.CountSliding(500, 500)
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	cfg.KnownGroups = 2
	m, _ := NewGroupedManager(cfg)
	var got []Result
	for i := 0; i < 1200; i++ {
		g := []string{"x", "y"}[i%2]
		rs, err := m.OnTuple(tuple.New(int64(i*3), tuple.String_(g), tuple.Float(7)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}
	if len(got) != 2 {
		t.Fatalf("fired %d windows, want 2", len(got))
	}
	for _, r := range got {
		if r.Mode != ModeSampled {
			t.Errorf("Mode = %v", r.Mode)
		}
		if r.Groups["x"] != 7 || r.Groups["y"] != 7 {
			t.Errorf("groups = %v", r.Groups)
		}
		if r.N != 500 {
			t.Errorf("N = %d", r.N)
		}
	}
	// Watermarks ignored in count domain.
	if rs, err := m.OnWatermark(1 << 40); err != nil || rs != nil {
		t.Errorf("count-domain watermark fired %v, %v", rs, err)
	}
}

// TestKnownGroupsSliding: overlapping windows keep independent
// reservoirs and fire in order.
func TestKnownGroupsSliding(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 100)
	cfg.Spec = window.Spec{Domain: window.TimeDomain, Range: 100, Slide: 50}
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	cfg.KnownGroups = 1
	m, _ := NewGroupedManager(cfg)
	// Value = window of the tuple's ts so overlapping windows have
	// different (checkable) means.
	for ts := int64(0); ts < 300; ts++ {
		m.OnTuple(tuple.New(ts, tuple.String_("g"), tuple.Float(float64(ts))))
	}
	rs, err := m.OnWatermark(300)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Start < 0 || r.End > 300 {
			continue
		}
		wantMean := float64(r.Start+r.End-1) / 2
		if math.Abs(r.Groups["g"]-wantMean) > wantMean*0.10+1 {
			t.Errorf("window [%d,%d): mean %v, want ≈%v", r.Start, r.End, r.Groups["g"], wantMean)
		}
	}
	if len(rs) < 4 {
		t.Errorf("only %d sliding windows fired", len(rs))
	}
}

// TestGroupedLateTuplesKnownGroups: late tuples in the arrival-sampled
// path are counted and excluded — from the results, and, as on the
// scalar path, from the archive and from the shed count too: archiving
// one reopened a pane the fire had evicted (a chunk stored for the next
// fire to delete unread), and a shedding spell counted it as shed.
func TestGroupedLateTuplesKnownGroups(t *testing.T) {
	store := storage.NewMemStore()
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 50)
	cfg.Store = store
	cfg.ArchiveChunk = 1 // every archived tuple is a Store call
	cfg.KeyBy = tuple.FieldString(0)
	cfg.Value = tuple.FieldFloat(1)
	cfg.KnownGroups = 1
	m, _ := NewGroupedManager(cfg)
	m.OnTuple(tuple.New(50, tuple.String_("g"), tuple.Float(1)))
	if _, err := m.OnWatermark(100); err != nil {
		t.Fatal(err)
	}
	stores := store.Stats().Stores
	m.OnTuple(tuple.New(10, tuple.String_("g"), tuple.Float(999)))
	m.SetShedding(true)
	m.OnTupleBatch([]tuple.Tuple{tuple.New(20, tuple.String_("g"), tuple.Float(999))})
	m.SetShedding(false)
	if m.LateDropped() != 2 {
		t.Errorf("LateDropped = %d", m.LateDropped())
	}
	keys, _ := store.List("")
	if got := store.Stats().Stores; got != stores || len(keys) != 0 {
		t.Errorf("late tuples were archived: %d Store calls, panes %v", got-stores, keys)
	}
	if m.sheds != 0 {
		t.Errorf("sheds = %d: a late tuple counted as shed", m.sheds)
	}
	m.OnTuple(tuple.New(150, tuple.String_("g"), tuple.Float(2)))
	rs, _ := m.OnWatermark(200)
	if len(rs) != 1 || rs[0].Groups["g"] != 2 {
		t.Errorf("late tuple leaked: %+v", rs)
	}
}

// TestScalarCountSlidingWindows: overlapping count windows on the
// scalar manager.
func TestScalarCountSlidingWindows(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Sum}, 1000)
	cfg.Spec = window.CountSliding(100, 50)
	m, _ := NewScalarManager(cfg)
	var got []Result
	for i := 0; i < 400; i++ {
		rs, err := m.OnTuple(tuple.New(int64(i*13), tuple.Float(1)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}
	full := 0
	for _, r := range got {
		if r.Start >= 0 && r.N == 100 {
			if r.Scalar != 100 {
				t.Errorf("window [%d,%d) sum = %v", r.Start, r.End, r.Scalar)
			}
			full++
		}
	}
	if full < 5 {
		t.Errorf("only %d full sliding count windows", full)
	}
}

// TestGroupedMomentsAndSampleSeeOneWindow: the incremental fast path
// (answered from the moments, nothing archived) and the forced-sampling
// path (a stratified sample of the window fetched from S) see the same
// window boundaries and sizes.
func TestGroupedMomentsAndSampleSeeOneWindow(t *testing.T) {
	feed := func(m Manager) []Result {
		for i := 0; i < 4000; i++ {
			g := []string{"a", "b", "c"}[i%3]
			m.OnTuple(tuple.New(int64(i)%100, tuple.String_(g), tuple.Float(float64(i%50))))
		}
		rs, err := m.OnWatermark(100)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	fast := mkCfg(agg.Func{Op: agg.Mean}, 3000)
	fast.KeyBy = tuple.FieldString(0)
	fast.Value = tuple.FieldFloat(1)
	mf, _ := NewGroupedManager(fast)

	slow := fast
	slow.DisableIncremental = true
	msl, _ := NewGroupedManager(slow)

	a, b := feed(mf), feed(msl)
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("windows: %d vs %d", len(a), len(b))
	}
	if a[0].N != b[0].N || a[0].Start != b[0].Start || a[0].End != b[0].End {
		t.Errorf("window metadata differs: %+v vs %+v", a[0], b[0])
	}
	if a[0].Mode != ModeIncremental || b[0].Mode != ModeSampled {
		t.Errorf("modes = %v, %v", a[0].Mode, b[0].Mode)
	}
	for g, av := range a[0].Groups {
		if rel := stats.RelativeError(b[0].Groups[g], av); rel > 0.10 {
			t.Errorf("group %s: sampled %v vs exact %v", g, b[0].Groups[g], av)
		}
	}
}
