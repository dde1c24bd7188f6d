package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"spear/internal/agg"
	"spear/internal/col"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// noArchiveGoldens is what the commit before PR 27 — whose incremental
// manager archived every tuple beside its slices — produced for each
// cell of TestIncrementalScalarNeverTouchesStore: an FNV-1a hash over
// every window's id, N, SampleN, Mode and value bits, in fire order.
var noArchiveGoldens = map[string]uint64{
	"count/tumbling":    0x393215497c354e2f,
	"count/sliding":     0x2bd7288db8fbde01,
	"count/count":       0x96ae8316965753a2,
	"sum/tumbling":      0xac1d42b509a70a87,
	"sum/sliding":       0xeb6f09e9972f72ab,
	"sum/count":         0x8bbb10643b4536ac,
	"mean/tumbling":     0xb07c42bf7b3a2944,
	"mean/sliding":      0xd70e77ec74391c1a,
	"mean/count":        0xfdb93b1873243a14,
	"variance/tumbling": 0x1c8e79cc802146ad,
	"variance/sliding":  0xea2934b73a282c8b,
	"variance/count":    0x215be8db6bb87365,
	"min/tumbling":      0x982758504426889f,
	"min/sliding":       0x32df5a8ee7af5cb3,
	"min/count":         0x7d45af076ee9405e,
	"max/tumbling":      0x4be1bce20b0b2f5f,
	"max/sliding":       0xf3a4b363d4855451,
	"max/count":         0x22d945a140b7c093,
}

// noArchiveSpecs are the window shapes of the no-archive tests.
var noArchiveSpecs = []struct {
	name string
	spec window.Spec
}{
	{"tumbling", window.Spec{Domain: window.TimeDomain, Range: 100, Slide: 100}},
	{"sliding", window.Spec{Domain: window.TimeDomain, Range: 120, Slide: 40}},
	{"count", window.Spec{Domain: window.CountDomain, Range: 90, Slide: 30}},
}

// noArchiveManager is what driveNoArchive drives: a SPEAr manager with
// every entry point and seam the engine calls (a columnar run needs a
// ColumnManager too).
type noArchiveManager interface {
	compatManager
	PrefetchWatermark(int64)
	TakeDeferredDeletes() []string
	BudgetMemUsage() int
}

// driveNoArchive feeds ops in batches of 64 to the manager mk returns and
// fires every watermark the way the engine's worker does; a checkpointed
// run snapshots after each and, now and then, carries on in a manager
// restored from the snapshot. Unless the manager archives, every call
// must leave its memory equal to its budget memory and defer no delete,
// and shedding is offered to it (it must refuse; the archiving reference
// would lose its fallback). The manager must say it keeps rows exactly
// when it archives; one that says it keeps none gets each batch's values
// in one slab that is scribbled over once the call returns, as a shard's
// decoder reuses it, so a row it kept after all shows in its results.
func driveNoArchive(t *testing.T, ops []kernelOp, mk func() noArchiveManager, columnar, ckpt, archives bool) []Result {
	t.Helper()
	m := mk()
	var out []Result
	emit := func(rs []Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs...)
	}
	cb := col.Get()
	defer col.Put(cb)
	var pend []tuple.Tuple
	var slab []tuple.Value
	flush := func() {
		if len(pend) == 0 {
			return
		}
		if KeepsRows(m) != archives {
			t.Fatalf("KeepsRows %v for a manager that archives: %v", KeepsRows(m), archives)
		}
		if !archives {
			slab = slab[:0]
			for i := range pend {
				slab = append(slab, pend[i].Vals...)
			}
			at := 0
			for i := range pend {
				w := len(pend[i].Vals)
				pend[i].Vals = slab[at : at+w : at+w]
				at += w
			}
		}
		if columnar {
			cb.SetRows(pend)
			emit(m.(ColumnManager).OnColumnBatch(cb))
		} else {
			emit(m.OnTupleBatch(pend))
		}
		for i := range slab {
			slab[i] = tuple.String_("scribbled")
		}
		pend = pend[:0]
	}
	marks := 0
	for _, op := range ops {
		if op.kind == 't' {
			if pend = append(pend, op.tup); len(pend) == 64 {
				flush()
			}
			continue
		}
		flush()
		switch op.kind {
		case 's':
			if !archives {
				m.SetShedding(op.on)
			}
		case 'b':
			m.SetBudget(op.budget)
		case 'w':
			emit(m.OnWatermark(op.wm))
			m.PrefetchWatermark(op.wm)
			if !ckpt {
				continue
			}
			blob, err := m.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if d := m.TakeDeferredDeletes(); len(d) != 0 && !archives {
				t.Fatalf("deletes deferred: %v", d)
			}
			if marks++; marks%10 == 0 {
				m = mk()
				if err := m.RestoreState(blob); err != nil {
					t.Fatal(err)
				}
				if err := m.RewindStore(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// TestIncrementalScalarNeverTouchesStore: a non-holistic scalar query
// has no accuracy check to fail, so no exact fallback to fetch, so
// nothing to archive. Over every incremental aggregate, window shape,
// entry point and checkpointing mode the store sees no call at all, the
// manager's memory is its budget memory, and the results are the
// parent's bit for bit — and, value and N, those of the same query made
// to archive, sample and fall back (DisableIncremental at an ε no sample
// meets).
func TestIncrementalScalarNeverTouchesStore(t *testing.T) {
	ops := kernelStream(2400, 16, 40, 5)
	for _, op := range []agg.Op{agg.Count, agg.Sum, agg.Mean, agg.Variance, agg.Min, agg.Max} {
		for _, s := range noArchiveSpecs {
			name := fmt.Sprintf("%s/%s", op, s.name)
			drive := func(t *testing.T, store storage.SpillStore, columnar, ckpt, sampled bool) []Result {
				t.Helper()
				return driveNoArchive(t, ops, func() noArchiveManager {
					cfg := Config{
						Spec: s.spec, Agg: agg.Func{Op: op}, Value: tuple.FieldFloat(0),
						Epsilon: 0.25, Confidence: 0.95, BudgetTuples: 32, ArchiveChunk: 7,
						Store: store, Key: "k", Seed: 11, SpillAhead: 2,
						DeferStoreDeletes: ckpt, DisableIncremental: sampled,
						Columnar: ColumnarSpec{Enabled: columnar, ValueField: 0},
					}
					if sampled {
						cfg.Epsilon = 1e-15
					}
					m, err := NewScalarManager(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}, columnar, ckpt, sampled)
			}
			t.Run(name, func(t *testing.T) {
				var first []Result
				for _, columnar := range []bool{false, true} {
					for _, ckpt := range []bool{false, true} {
						store := storage.NewMemStore()
						got := drive(t, store, columnar, ckpt, false)
						if st := store.Stats(); st != (storage.Stats{}) {
							t.Errorf("columnar=%v checkpointed=%v: the store was touched: %+v", columnar, ckpt, st)
						}
						if keys, _ := store.List(""); len(keys) != 0 {
							t.Errorf("columnar=%v checkpointed=%v: keys in the store: %v", columnar, ckpt, keys)
						}
						h := fnv.New64a()
						for _, r := range got {
							fmt.Fprintf(h, "%d %d %d %s %016x\n", r.WindowID, r.N, r.SampleN, r.Mode, math.Float64bits(r.Scalar))
							if r.Mode != ModeIncremental || r.FetchedFromStore {
								t.Fatalf("window %d: mode %v, fetched %v", r.WindowID, r.Mode, r.FetchedFromStore)
							}
						}
						if len(got) < 20 {
							t.Fatalf("only %d windows fired", len(got))
						}
						if sum := h.Sum64(); sum != noArchiveGoldens[name] {
							t.Errorf("columnar=%v checkpointed=%v: results hash %#016x, the parent's %#016x", columnar, ckpt, sum, noArchiveGoldens[name])
						}
						first = got
					}
				}
				ref := drive(t, storage.NewMemStore(), false, true, true)
				if len(ref) != len(first) {
					t.Fatalf("%d windows, %d on the sampled path", len(first), len(ref))
				}
				for i, w := range ref {
					g := first[i]
					if g.WindowID != w.WindowID || g.N != w.N || math.Abs(g.Scalar-w.Scalar) > 1e-12*math.Abs(w.Scalar) {
						t.Errorf("window %d: %v over %d, the archived window %d gives %v over %d", g.WindowID, g.Scalar, g.N, w.WindowID, w.Scalar, w.N)
					}
				}
			})
		}
	}
}

// TestIncrementalGroupedNeverTouchesStore is the same rule for a grouped
// query with groups unknown: its moments answer every window, so it
// keeps neither a window buffer nor an archive. Over grouped Sum, Mean
// and Variance × window shapes × checkpointed or not, the store sees no
// call, the manager's memory is its budget memory, and every run gives
// the same results bit for bit. Those are
// the exact baseline's windows, values within 1e-12 relative (summation
// order), answered ModeIncremental where b holds the window's groups and
// ModeExact, from the same moments and without a rescan, where the
// stream's SetBudget has taken b below them (it goes to 0 for a while).
func TestIncrementalGroupedNeverTouchesStore(t *testing.T) {
	ops := kernelStream(2400, 16, 40, 5)
	for _, op := range []agg.Op{agg.Sum, agg.Mean, agg.Variance} {
		for _, s := range noArchiveSpecs {
			t.Run(fmt.Sprintf("%s/%s", op, s.name), func(t *testing.T) {
				cfg := Config{
					Spec: s.spec, Agg: agg.Func{Op: op}, Value: tuple.FieldFloat(0), KeyBy: tuple.FieldString(1),
					Epsilon: 0.25, Confidence: 0.95, BudgetTuples: 32, ArchiveChunk: 7,
					Key: "k", Seed: 11, SpillAhead: 2,
				}
				var first []Result
				for _, ckpt := range []bool{false, true} {
					store := storage.NewMemStore()
					got := driveNoArchive(t, ops, func() noArchiveManager {
						c := cfg
						c.Store, c.DeferStoreDeletes = store, ckpt
						m, err := NewGroupedManager(c)
						if err != nil {
							t.Fatal(err)
						}
						return m
					}, false, ckpt, false)
					if st := store.Stats(); st != (storage.Stats{}) {
						t.Errorf("checkpointed=%v: the store was touched: %+v", ckpt, st)
					}
					if first == nil {
						first = got
					} else if !slices.EqualFunc(got, first, sameResult) {
						t.Errorf("checkpointed=%v: results differ from the plain run's", ckpt)
					}
				}

				cfg.Store = storage.NewMemStore()
				exact, err := NewExactManager(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var want []Result
				for _, o := range ops {
					var rs []Result
					switch o.kind {
					case 't':
						rs, err = ingestOne(exact, o.tup)
					case 'w':
						rs, err = exact.OnWatermark(o.wm)
					}
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, rs...)
				}
				if len(first) != len(want) {
					t.Fatalf("%d windows, the exact baseline %d", len(first), len(want))
				}
				modes := map[Mode]int{}
				for i, r := range first {
					w := want[i]
					if r.WindowID != w.WindowID || r.N != w.N || len(r.Groups) != len(w.Groups) || r.FetchedFromStore {
						t.Fatalf("window %d: N=%d over %d groups (fetched %v), the exact baseline's window %d N=%d over %d",
							r.WindowID, r.N, len(r.Groups), r.FetchedFromStore, w.WindowID, w.N, len(w.Groups))
					}
					for k, v := range w.Groups {
						if g, ok := r.Groups[k]; !ok || math.Abs(g-v) > 1e-12*math.Abs(v) {
							t.Errorf("window %d group %q: %v, the exact baseline %v", r.WindowID, k, g, v)
						}
					}
					want := ModeIncremental
					if len(r.Groups) > r.Budget {
						want = ModeExact
					}
					if r.Mode != want {
						t.Errorf("window %d: %d groups at b=%d answered %v", r.WindowID, len(r.Groups), r.Budget, r.Mode)
					}
					modes[r.Mode]++
				}
				if modes[ModeIncremental] == 0 || modes[ModeExact] == 0 {
					t.Fatalf("modes %v: the stream must take b below a window's groups and back", modes)
				}
			})
		}
	}
	// What a grouped incremental query holds is its groups' moments: for
	// one group set its budget memory does not grow with the tuples a
	// window holds.
	for _, s := range noArchiveSpecs[:2] { // a count window holds Range tuples
		t.Run("memory/"+s.name, func(t *testing.T) {
			mem := func(perTick int) int {
				m, err := NewGroupedManager(Config{
					Spec: s.spec, Agg: agg.Func{Op: agg.Mean}, Value: tuple.FieldFloat(0), KeyBy: tuple.FieldString(1),
					Epsilon: 0.25, Confidence: 0.95, BudgetTuples: 32, Store: storage.NewMemStore(), Key: "k",
				})
				if err != nil {
					t.Fatal(err)
				}
				for tick := 0; tick < 1000; tick++ {
					for j := 0; j < perTick; j++ {
						if _, err := ingestOne(m, tuple.New(int64(tick), tuple.Float(float64(j)), tuple.String_(fmt.Sprintf("g%d", (tick+j)%6)))); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := m.OnWatermark(500); err != nil {
					t.Fatal(err)
				}
				return m.BudgetMemUsage()
			}
			if sparse, dense := mem(1), mem(8); sparse != dense || sparse == 0 {
				t.Errorf("BudgetMemUsage %d at one tuple a tick, %d at eight", sparse, dense)
			}
		})
	}
}

// sameResult reports whether two results are the same window, answered
// the same way, to the same bits.
func sameResult(a, b Result) bool {
	same := a.WindowID == b.WindowID && a.N == b.N && a.SampleN == b.SampleN && a.Mode == b.Mode &&
		a.Budget == b.Budget && len(a.Groups) == len(b.Groups)
	for k, v := range a.Groups {
		w, ok := b.Groups[k]
		same = same && ok && math.Float64bits(v) == math.Float64bits(w)
	}
	return same
}

// TestGroupedWindowsBeforePositionZeroAreFolded: the windows that start
// before position 0 — a sliding window's first overlap − 1 on a stream
// that starts at 0 — are folded like any other. With groups unknown an
// incremental aggregate answers them from the moments, ModeIncremental,
// where the manager used to hold no metadata for them and answer them
// from its window buffer, ModeExact.
func TestGroupedWindowsBeforePositionZeroAreFolded(t *testing.T) {
	for _, spec := range []window.Spec{
		{Domain: window.TimeDomain, Range: 120, Slide: 40},
		{Domain: window.CountDomain, Range: 90, Slide: 30},
	} {
		t.Run(spec.String(), func(t *testing.T) {
			cfg := Config{
				Spec: spec, Agg: agg.Func{Op: agg.Mean}, Value: tuple.FieldFloat(0), KeyBy: tuple.FieldString(1),
				Epsilon: 0.25, Confidence: 0.95, BudgetTuples: 32, Store: storage.NewMemStore(), Key: "k",
			}
			run := func(m Manager, err error) []Result {
				if err != nil {
					t.Fatal(err)
				}
				var out []Result
				for i := 0; i < 300; i++ {
					rs, err := ingestOne(m, tuple.New(int64(i), tuple.Float(float64(i%11)), tuple.String_(fmt.Sprintf("g%d", i%4))))
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, rs...)
				}
				rs, err := m.OnWatermark(math.MaxInt64)
				if err != nil {
					t.Fatal(err)
				}
				return append(out, rs...)
			}
			got, want := run(NewGroupedManager(cfg)), run(NewExactManager(cfg))
			if len(got) != len(want) || got[0].WindowID != -2 || got[1].WindowID != -1 {
				t.Fatalf("fired %d windows from %d, the exact baseline %d; want the first two to be -2 and -1", len(got), got[0].WindowID, len(want))
			}
			for i, r := range got {
				if r.Mode != ModeIncremental || r.WindowID != want[i].WindowID || r.N != want[i].N {
					t.Errorf("window %d: %v over N=%d, the exact baseline's window %d N=%d", r.WindowID, r.Mode, r.N, want[i].WindowID, want[i].N)
				}
				for k, v := range want[i].Groups {
					if g := r.Groups[k]; math.Abs(g-v) > 1e-12*math.Abs(v) {
						t.Errorf("window %d group %q: %v, the exact baseline %v", r.WindowID, k, g, v)
					}
				}
			}
		})
	}
}
