package core

import (
	"math"
	"math/rand"
	"testing"

	"spear/internal/agg"
	"spear/internal/col"
	"spear/internal/tuple"
	"spear/internal/window"
)

// This file pins the ColumnManager contract at the manager level: for
// every configuration the kernels claim to handle — and every one they
// must fall back from — OnColumnBatch has to reproduce OnTupleBatch
// bit-for-bit: window values, sample sizes, error estimates, AND the
// accelerate/exact Mode decisions.

// play feeds a script of steps ([]tuple.Tuple batches and int64
// watermarks) through m, via the columnar lane or the row lane, and
// returns the concatenated results.
func play(t *testing.T, m Manager, columnar bool, steps []any) []Result {
	t.Helper()
	var out []Result
	var cb *col.ColumnBatch
	if columnar {
		cb = col.Get()
		defer col.Put(cb)
	}
	for _, s := range steps {
		var rs []Result
		var err error
		switch v := s.(type) {
		case []tuple.Tuple:
			if columnar {
				cb.SetRows(v)
				rs, err = m.(ColumnManager).OnColumnBatch(cb)
			} else {
				rs, err = m.OnTupleBatch(v)
			}
		case int64:
			rs, err = m.OnWatermark(v)
		default:
			t.Fatalf("bad step type %T", s)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs...)
	}
	return out
}

// batches splits rows into batch-sized steps.
func batches(rows []tuple.Tuple, size int) []any {
	var out []any
	for i := 0; i < len(rows); i += size {
		end := i + size
		if end > len(rows) {
			end = len(rows)
		}
		out = append(out, rows[i:end])
	}
	return out
}

// sameResultSets asserts bit-exact equality of two result streams.
func sameResultSets(t *testing.T, row, col []Result) {
	t.Helper()
	if len(row) != len(col) {
		t.Fatalf("result count: row=%d columnar=%d", len(row), len(col))
	}
	for i := range row {
		a, b := row[i], col[i]
		if a.WindowID != b.WindowID || a.Start != b.Start || a.End != b.End {
			t.Fatalf("result %d: window [%d,%d)#%d vs [%d,%d)#%d",
				i, a.Start, a.End, a.WindowID, b.Start, b.End, b.WindowID)
		}
		if a.Mode != b.Mode {
			t.Fatalf("result %d window %d: Mode %v vs %v", i, a.WindowID, a.Mode, b.Mode)
		}
		if a.N != b.N || a.SampleN != b.SampleN {
			t.Fatalf("result %d window %d: n=%d/%d vs n=%d/%d",
				i, a.WindowID, a.SampleN, a.N, b.SampleN, b.N)
		}
		if a.FetchedFromStore != b.FetchedFromStore {
			t.Fatalf("result %d window %d: fetched %v vs %v",
				i, a.WindowID, a.FetchedFromStore, b.FetchedFromStore)
		}
		if math.Float64bits(a.EstError) != math.Float64bits(b.EstError) {
			t.Fatalf("result %d window %d: ε̂ %v vs %v", i, a.WindowID, a.EstError, b.EstError)
		}
		if math.Float64bits(a.Scalar) != math.Float64bits(b.Scalar) {
			t.Fatalf("result %d window %d: scalar %v vs %v", i, a.WindowID, a.Scalar, b.Scalar)
		}
		if len(a.Groups) != len(b.Groups) {
			t.Fatalf("result %d window %d: %d groups vs %d", i, a.WindowID, len(a.Groups), len(b.Groups))
		}
		for g, av := range a.Groups {
			bv, ok := b.Groups[g]
			if !ok || math.Float64bits(av) != math.Float64bits(bv) {
				t.Fatalf("result %d window %d group %q: %v vs %v (present=%v)",
					i, a.WindowID, g, av, bv, ok)
			}
		}
	}
}

// modes tallies the Mode mix so tests can assert a case actually
// exercised both the accelerated and the exact path.
func modes(rs []Result) map[Mode]int {
	out := map[Mode]int{}
	for _, r := range rs {
		out[r.Mode]++
	}
	return out
}

func scalarRows(n int, gen func(i int) (int64, float64)) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		ts, v := gen(i)
		rows[i] = tuple.New(ts, tuple.Float(v))
	}
	return rows
}

func TestColumnarScalarIdentity(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func() Config
		steps func() []any
		want  func(t *testing.T, rs []Result)
	}{
		{
			// Non-holistic scalar: every window resolves incrementally.
			name: "mean incremental",
			cfg:  func() Config { return mkCfg(agg.Func{Op: agg.Mean}, 50) },
			steps: func() []any {
				r := rand.New(rand.NewSource(7))
				rows := scalarRows(2000, func(i int) (int64, float64) {
					return int64(i), r.NormFloat64() * 100
				})
				steps := batches(rows[:1000], 64)
				steps = append(steps, int64(500))
				steps = append(steps, batches(rows[1000:], 64)...)
				steps = append(steps, int64(2000))
				return steps
			},
			want: func(t *testing.T, rs []Result) {
				if m := modes(rs); m[ModeIncremental] != len(rs) || len(rs) == 0 {
					t.Fatalf("mode mix %v, want all incremental", m)
				}
			},
		},
		{
			// Holistic median under a budget below the Hoeffding bound
			// for ε=0.10: windows smaller than the budget are fully
			// sampled (ε̂=0 → sampled), larger ones fail the accuracy
			// check (exact, fetched from the archive). The Mode decision
			// itself must match.
			name: "median sampled and exact",
			cfg:  func() Config { return mkCfg(agg.Median(), 60) },
			steps: func() []any {
				r := rand.New(rand.NewSource(11))
				var rows []tuple.Tuple
				for w := 0; w < 10; w++ {
					n := 40 // fits the budget → fully sampled
					if w%2 == 1 {
						n = 400 // exceeds it → exact fallback
					}
					for i := 0; i < n; i++ {
						rows = append(rows, tuple.New(
							int64(w*100)+int64(i)%100,
							tuple.Float(r.NormFloat64()*100)))
					}
				}
				steps := batches(rows, 64)
				steps = append(steps, int64(1<<40))
				return steps
			},
			want: func(t *testing.T, rs []Result) {
				m := modes(rs)
				if m[ModeSampled] == 0 || m[ModeExact] == 0 {
					t.Fatalf("mode mix %v, want both sampled and exact", m)
				}
			},
		},
		{
			// §5.5 configuration: mean forced through the
			// sample-and-estimate path.
			name: "mean no incremental",
			cfg: func() Config {
				c := mkCfg(agg.Func{Op: agg.Mean}, 80)
				c.DisableIncremental = true
				return c
			},
			steps: func() []any {
				r := rand.New(rand.NewSource(13))
				rows := scalarRows(3000, func(i int) (int64, float64) {
					v := math.Abs(r.NormFloat64()) * math.Pow(10, float64(r.Intn(6)))
					return int64(i / 3), v
				})
				steps := batches(rows, 64)
				steps = append(steps, int64(1<<40))
				return steps
			},
			want: func(t *testing.T, rs []Result) {
				m := modes(rs)
				if m[ModeIncremental] != 0 {
					t.Fatalf("mode mix %v, incremental should be disabled", m)
				}
			},
		},
		{
			// Sliding windows: every tuple lands in four windows, and a
			// run can straddle an assignment change mid-slide.
			name: "sliding range 4x slide",
			cfg: func() Config {
				c := mkCfg(agg.Func{Op: agg.Mean}, 50)
				c.Spec = window.Spec{Domain: window.TimeDomain, Range: 400, Slide: 100}
				return c
			},
			steps: func() []any {
				r := rand.New(rand.NewSource(17))
				rows := scalarRows(1500, func(i int) (int64, float64) {
					return int64(i), r.Float64() * 10
				})
				steps := batches(rows, 64)
				steps = append(steps, int64(800))
				steps = append(steps, int64(1<<40))
				return steps
			},
			want: func(t *testing.T, rs []Result) {
				if len(rs) == 0 {
					t.Fatal("no results")
				}
			},
		},
		{
			// Late tuples: whole-late batches, and batches mixing late
			// runs with on-time runs, must be dropped identically.
			name: "late tuples",
			cfg:  func() Config { return mkCfg(agg.Func{Op: agg.Mean}, 20) },
			steps: func() []any {
				on := scalarRows(200, func(i int) (int64, float64) { return int64(i), float64(i) })
				lateOnly := scalarRows(30, func(i int) (int64, float64) { return int64(i % 90), 1e9 })
				mixed := scalarRows(40, func(i int) (int64, float64) {
					if i%3 == 0 {
						return int64(i), -1 // late
					}
					return int64(200 + i), float64(i)
				})
				return []any{
					on, int64(200),
					lateOnly, mixed,
					int64(1 << 40),
				}
			},
			want: func(t *testing.T, rs []Result) {
				if len(rs) == 0 {
					t.Fatal("no results")
				}
			},
		},
		{
			// Batches the kernel must refuse: a mixed-kind value column
			// (ints scattered among floats overflow the column) makes
			// Floats return nil, so the kernel hands the rows to
			// OnTupleBatch unchanged, interleaved with eligible batches.
			name: "ineligible batches fall back",
			cfg:  func() Config { return mkCfg(agg.Func{Op: agg.Mean}, 50) },
			steps: func() []any {
				clean := scalarRows(300, func(i int) (int64, float64) { return int64(i), float64(i) })
				dirty := make([]tuple.Tuple, 64)
				for i := range dirty {
					if i%3 == 0 {
						dirty[i] = tuple.New(int64(300+i), tuple.Int(int64(i)))
					} else {
						dirty[i] = tuple.New(int64(300+i), tuple.Float(float64(i)))
					}
				}
				steps := batches(clean, 64)
				steps = append(steps, dirty)
				steps = append(steps, int64(1<<40))
				return steps
			},
			want: func(t *testing.T, rs []Result) {
				if len(rs) == 0 {
					t.Fatal("no results")
				}
			},
		},
		{
			// A uniformly-int value column is eligible: Floats widens it
			// into a scratch []float64 with the exact AsFloat bits.
			name: "int value column widens",
			cfg:  func() Config { return mkCfg(agg.Func{Op: agg.Mean}, 50) },
			steps: func() []any {
				rows := make([]tuple.Tuple, 500)
				for i := range rows {
					rows[i] = tuple.New(int64(i), tuple.Int(int64(i*7-1000)))
				}
				steps := batches(rows, 64)
				steps = append(steps, int64(1<<40))
				return steps
			},
			want: func(t *testing.T, rs []Result) {
				if len(rs) == 0 {
					t.Fatal("no results")
				}
			},
		},
		{
			// A declared value field that disagrees with the extractor
			// trips the first-row check; speed is lost, results are not.
			name: "wrong declaration falls back",
			cfg: func() Config {
				c := mkCfg(agg.Func{Op: agg.Mean}, 50)
				c.Columnar.ValueField = 1 // Value reads field 0
				return c
			},
			steps: func() []any {
				rows := make([]tuple.Tuple, 256)
				for i := range rows {
					rows[i] = tuple.New(int64(i), tuple.Float(float64(i)), tuple.Float(-1))
				}
				steps := batches(rows, 64)
				steps = append(steps, int64(1<<40))
				return steps
			},
			want: func(t *testing.T, rs []Result) {
				if len(rs) == 0 {
					t.Fatal("no results")
				}
			},
		},
		{
			// Count-domain windows complete at arrival; the kernel
			// declines them up front.
			name: "count domain falls back",
			cfg: func() Config {
				c := mkCfg(agg.Func{Op: agg.Mean}, 50)
				c.Spec = window.CountSliding(100, 100)
				return c
			},
			steps: func() []any {
				rows := scalarRows(350, func(i int) (int64, float64) { return int64(i), float64(i % 7) })
				return batches(rows, 64)
			},
			want: func(t *testing.T, rs []Result) {
				if len(rs) != 3 {
					t.Fatalf("%d count windows, want 3", len(rs))
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rowCfg, colCfg := tc.cfg(), tc.cfg()
			rowCfg.Columnar.Enabled = true // same config bits both sides
			colCfg.Columnar.Enabled = true
			rm, err := NewScalarManager(rowCfg)
			if err != nil {
				t.Fatal(err)
			}
			cm, err := NewScalarManager(colCfg)
			if err != nil {
				t.Fatal(err)
			}
			rowRes := play(t, rm, false, tc.steps())
			colRes := play(t, cm, true, tc.steps())
			sameResultSets(t, rowRes, colRes)
			if rm.LateDropped() != cm.LateDropped() {
				t.Fatalf("late dropped: row=%d columnar=%d", rm.LateDropped(), cm.LateDropped())
			}
			tc.want(t, rowRes)
		})
	}
}

// TestColumnarKernelAllocs is the allocation-regression gate on the
// columnar hot path: in steady state (warm column buffers, warm archive
// chunk, existing window) a 64-tuple OnColumnBatch — including the
// SetRows conversion — must stay O(1) allocations per batch, far below
// one allocation per tuple.
func TestColumnarKernelAllocs(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 100)
	cfg.ArchiveChunk = 1 << 20 // keep chunk flushes out of the measurement
	cfg.Columnar = ColumnarSpec{Enabled: true, ValueField: 0}
	m, err := NewScalarManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]tuple.Tuple, 64)
	for i := range rows {
		rows[i] = tuple.New(10, tuple.Float(float64(i)))
	}
	cb := col.Get()
	defer col.Put(cb)
	for i := 0; i < 200; i++ { // warm buffers and archive chunk capacity
		cb.SetRows(rows)
		if _, err := m.OnColumnBatch(cb); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		cb.SetRows(rows)
		if _, err := m.OnColumnBatch(cb); err != nil {
			t.Fatal(err)
		}
	})
	if perTuple := avg / float64(len(rows)); perTuple > 0.25 {
		t.Fatalf("columnar ingest allocates %.2f per batch (%.3f/tuple), want < 0.25/tuple", avg, perTuple)
	}
}
