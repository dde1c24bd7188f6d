package core

import (
	"fmt"
	"hash/fnv"
	"math"
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

// TestIncrementalScalarNeverTouchesStore: a non-holistic scalar query
// has no accuracy check to fail, so no exact fallback to fetch, so
// nothing to archive. Over every incremental aggregate, window shape,
// entry point and checkpointing mode the store sees no call at all, the
// manager's memory is its budget memory, and the results are the
// parent's bit for bit — and, value and N, those of the same query made
// to archive, sample and fall back (DisableIncremental at an ε no sample
// meets).
func TestIncrementalScalarNeverTouchesStore(t *testing.T) {
	specs := []struct {
		name string
		spec window.Spec
	}{
		{"tumbling", window.Spec{Domain: window.TimeDomain, Range: 100, Slide: 100}},
		{"sliding", window.Spec{Domain: window.TimeDomain, Range: 120, Slide: 40}},
		{"count", window.Spec{Domain: window.CountDomain, Range: 90, Slide: 30}},
	}
	ops := kernelStream(2400, 16, 40, 5)
	for _, op := range []agg.Op{agg.Count, agg.Sum, agg.Mean, agg.Variance, agg.Min, agg.Max} {
		for _, s := range specs {
			name := fmt.Sprintf("%s/%s", op, s.name)
			mk := func(store storage.SpillStore, columnar, ckpt, sampled bool) *ScalarManager {
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
			}
			// drive feeds ops in batches of 64 and fires every watermark
			// the way the engine's worker does; a checkpointed run
			// snapshots after each and, now and then, carries on in a
			// manager restored from the snapshot.
			drive := func(t *testing.T, store storage.SpillStore, columnar, ckpt, sampled bool) []Result {
				t.Helper()
				m := mk(store, columnar, ckpt, sampled)
				var out []Result
				emit := func(rs []Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, rs...)
					if !sampled && m.MemUsage() != m.BudgetMemUsage() {
						t.Fatalf("MemUsage %d, BudgetMemUsage %d", m.MemUsage(), m.BudgetMemUsage())
					}
				}
				cb := col.Get()
				defer col.Put(cb)
				var pend []tuple.Tuple
				flush := func() {
					if len(pend) == 0 {
						return
					}
					if columnar {
						cb.SetRows(pend)
						emit(m.OnColumnBatch(cb))
					} else {
						emit(m.OnTupleBatch(pend))
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
						if !sampled { // refused; the reference would lose its fallback
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
						if d := m.TakeDeferredDeletes(); len(d) != 0 && !sampled {
							t.Fatalf("deletes deferred: %v", d)
						}
						if marks++; marks%10 == 0 {
							m = mk(store, columnar, ckpt, sampled)
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
