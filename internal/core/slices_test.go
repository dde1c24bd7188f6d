package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spear/internal/agg"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// The incremental path keeps one accumulator per slice and merges
// slices into windows at a fire. What it is held to is the
// IncrementalManager baseline, which folds every tuple into every open
// window one Add at a time: the sequential per-window reference. The
// rule (DESIGN.md §22): the same windows in the same order with the same
// N and Mode; Sum, Count, Min and Max of integral data bit for bit;
// float Mean, Variance and StdDev to 1e-12 relative.

// sliceEvent is a batch of tuples or, when rows is nil, a watermark.
type sliceEvent struct {
	rows []tuple.Tuple
	wm   int64
}

// sliceDrive feeds the events to a slice-keeping scalar manager, batch
// by batch, and tuple by tuple to the per-window reference.
func sliceDrive(t *testing.T, cfg Config, events []sliceEvent) (got, want []Result, m *ScalarManager) {
	t.Helper()
	cfg.Store, cfg.Key = storage.NewMemStore(), "slices"
	m, err := NewScalarManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewIncrementalManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.rows == nil {
			rs, err := m.OnWatermark(e.wm)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rs...)
			rs, _ = ref.OnWatermark(e.wm)
			want = append(want, rs...)
			continue
		}
		rs, err := m.OnTupleBatch(e.rows)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
		for _, r := range e.rows {
			rs, _ = ingestOne(ref, r)
			want = append(want, rs...)
		}
	}
	if len(m.wins) != 0 {
		t.Errorf("%d per-window states on the incremental path", len(m.wins))
	}
	if m.LateDropped() != ref.lc.Late() {
		t.Errorf("late: %d, reference %d", m.LateDropped(), ref.lc.Late())
	}
	return got, want, m
}

// sameWindows applies the rule: exact requires the scalars bit for bit.
func sameWindows(t *testing.T, got, want []Result, exact bool) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d windows, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.WindowID != w.WindowID || g.Start != w.Start || g.End != w.End || g.N != w.N || g.SampleN != w.SampleN || g.Mode != w.Mode {
			t.Fatalf("window %d: got %+v, reference %+v", i, g, w)
		}
		finite := !math.IsNaN(w.Scalar) && !math.IsInf(w.Scalar, 0)
		switch {
		case math.Float64bits(g.Scalar) == math.Float64bits(w.Scalar):
		case !finite && (math.IsNaN(g.Scalar) || math.IsInf(g.Scalar, 0)):
		case finite && !exact && math.Abs(g.Scalar-w.Scalar) <= 1e-12*math.Abs(w.Scalar):
		default:
			t.Fatalf("window %d [%d,%d) n=%d: %v (%016x), reference %v (%016x)", w.WindowID, w.Start, w.End, w.N,
				g.Scalar, math.Float64bits(g.Scalar), w.Scalar, math.Float64bits(w.Scalar))
		}
	}
}

// sliceStream scripts n ticks of a stream: perTick tuples a tick (one
// in the count domain, where the position is the arrival), shuffled
// inside blocks of lag ticks, a watermark lag behind every every-th
// tick, a straggler now and then from far enough back to be dropped
// (or, before the first fire, to lower the anchor), one jump of 10⁹
// slides, and batches of 1 to 70 tuples cut anywhere.
func sliceStream(spec window.Spec, n, perTick, lag, every int, integral bool, seed int64) []sliceEvent {
	rng := rand.New(rand.NewSource(seed))
	value := func() tuple.Value {
		if integral {
			return tuple.Float(float64(rng.Intn(2001) - 1000))
		}
		return tuple.Float(20 + rng.NormFloat64()*float64(1+rng.Intn(5)))
	}
	var events []sliceEvent
	var pend []tuple.Tuple
	cut := 1 + rng.Intn(70)
	flush := func() {
		if len(pend) > 0 {
			events = append(events, sliceEvent{rows: pend})
			pend, cut = nil, 1+rng.Intn(70)
		}
	}
	base := int64(1000)
	for i0 := 0; i0 < n; i0 += lag {
		block := make([]tuple.Tuple, 0, lag*perTick)
		for i := i0; i < min(i0+lag, n); i++ {
			for j := 0; j < perTick; j++ {
				block = append(block, tuple.New(base+int64(i), value()))
			}
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for k, r := range block {
			if pend = append(pend, r); len(pend) == cut {
				flush()
			}
			if i := i0 + k/perTick; k%perTick == 0 {
				if i == 3 || i%53 == 52 {
					pend = append(pend, tuple.New(base+int64(i)-int64(n/5), value()))
				}
				if (i+1)%every == 0 {
					flush()
					events = append(events, sliceEvent{wm: base + int64(i+1-2*lag)})
				}
			}
		}
		if i0 <= n/2 && n/2 < i0+lag && spec.Domain == window.TimeDomain {
			base += 1_000_000_000 * spec.Slide
		}
	}
	flush()
	return append(events, sliceEvent{wm: math.MaxInt64})
}

func TestSlicesAssembleToPerWindowFold(t *testing.T) {
	specs := []window.Spec{
		{Domain: window.TimeDomain, Range: 7, Slide: 3}, // two slices a slide
		{Domain: window.TimeDomain, Range: 40, Slide: 40},
		{Domain: window.TimeDomain, Range: 64, Slide: 8},
		{Domain: window.TimeDomain, Range: 5, Slide: 1}, // with one tuple a tick, single-tuple slices
		{Domain: window.TimeDomain, Range: 90, Slide: 40},
		{Domain: window.CountDomain, Range: 7, Slide: 3},
		{Domain: window.CountDomain, Range: 96, Slide: 12},
		{Domain: window.CountDomain, Range: 50, Slide: 50},
	}
	ops := []agg.Op{agg.Mean, agg.Variance, agg.StdDev, agg.Sum, agg.Count, agg.Min, agg.Max}
	for _, spec := range specs {
		for _, op := range ops {
			for _, perTick := range []int{1, 3} {
				integral := op != agg.Mean && op != agg.Variance && op != agg.StdDev
				t.Run(fmt.Sprintf("%s/%s/x%d", spec, op, perTick), func(t *testing.T) {
					cfg := mkCfg(agg.Func{Op: op}, 16)
					cfg.Spec, cfg.ArchiveChunk = spec, 5
					for seed := int64(1); seed <= 4; seed++ {
						got, want, _ := sliceDrive(t, cfg, sliceStream(spec, 900, perTick, 6, 10, integral, seed))
						sameWindows(t, got, want, integral)
					}
				})
			}
		}
	}
}

// TestSliceIngestIsFlat is the structural half of "an add per tuple,
// not one per open window": with nothing fired, K tuples sit in slices
// whose counts sum to K, no more slices than the positions seen can
// span, and no window holds anything.
func TestSliceIngestIsFlat(t *testing.T) {
	const overlap, slide, lag = 8, 100, 250
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 16)
	cfg.Spec = window.Spec{Domain: window.TimeDomain, Range: overlap * slide, Slide: slide}
	m, _ := NewScalarManager(cfg)
	rng := rand.New(rand.NewSource(3))
	const K = (overlap*slide + lag) * 4 // four tuples a tick
	rows := make([]tuple.Tuple, K)
	for i := range rows {
		rows[i] = tuple.New(int64(i/4), tuple.Float(rng.Float64()))
	}
	for i := 0; i+4*lag <= K; i += 4 * lag {
		rng.Shuffle(4*lag, func(a, b int) { rows[i+a], rows[i+b] = rows[i+b], rows[i+a] })
	}
	for i := 0; i < K; i += 64 {
		if _, err := m.OnTupleBatch(rows[i:min(i+64, K)]); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	for i, s := range m.slices {
		sum += s.acc.Count()
		if i > 0 && s.hi <= m.slices[i-1].hi {
			t.Errorf("slice %d [%d,%d] is not after slice %d [%d,%d]", i, s.lo, s.hi, i-1, m.slices[i-1].lo, m.slices[i-1].hi)
		}
	}
	if most := overlap + lag/slide + 1; sum != K || len(m.slices) > most || len(m.wins) != 0 {
		t.Errorf("%d tuples in %d slices and %d windows, want %d in at most %d and 0", sum, len(m.slices), len(m.wins), K, most)
	}
	if got, want := m.BudgetMemUsage(), len(m.slices)*sliceBytes; got != want {
		t.Errorf("BudgetMemUsage %d, want %d", got, want)
	}
}

// TestSlicesNonFinite puts a NaN, a +Inf and a −Inf first in a slice,
// in the middle of one and first in a window, and requires of every
// aggregate what the rule requires: equal to the per-window fold, or
// non-finite where that is. Min and Max are where it used to depend on
// the position: a NaN that opened an accumulator hid every later
// extreme, one in the middle was ignored.
func TestSlicesNonFinite(t *testing.T) {
	spec := window.Spec{Domain: window.TimeDomain, Range: 30, Slide: 10}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// Window 0 starts at 0; slices start at 0, 10, 20, …
		for _, at := range []int{0, 10, 15, 37, 60} {
			for _, op := range []agg.Op{agg.Min, agg.Max, agg.Mean, agg.Sum, agg.Variance, agg.Count} {
				t.Run(fmt.Sprintf("%v@%d/%s", bad, at, op), func(t *testing.T) {
					var events []sliceEvent
					for i := 0; i < 100; i++ {
						v := float64(i%17) - 3
						if i == at {
							v = bad
						}
						events = append(events, sliceEvent{rows: []tuple.Tuple{tuple.New(int64(i), tuple.Float(v)), tuple.New(int64(i), tuple.Float(v+1))}})
						if i%10 == 9 {
							events = append(events, sliceEvent{wm: int64(i + 1)})
						}
					}
					cfg := mkCfg(agg.Func{Op: op}, 16)
					cfg.Spec = spec
					got, want, _ := sliceDrive(t, cfg, append(events, sliceEvent{wm: math.MaxInt64}))
					sameWindows(t, got, want, op != agg.Mean && op != agg.Variance)
					if op == agg.Min || op == agg.Max {
						for _, r := range got {
							in := r.Start <= int64(at) && int64(at) < r.End
							if hit := math.IsNaN(r.Scalar) || math.IsInf(r.Scalar, 0); math.IsNaN(bad) && hit != in {
								t.Errorf("window [%d,%d): %s = %v with the NaN at %d", r.Start, r.End, op, r.Scalar, at)
							}
						}
					}
				})
			}
		}
	}
}

// TestSliceRecoveryMidSlice crashes in the middle of a slice, with
// tuples out of order around it: the restored manager re-encodes to
// the snapshot's bytes and continues to the uninterrupted run's results
// bit for bit.
func TestSliceRecoveryMidSlice(t *testing.T) {
	for _, spec := range []window.Spec{
		{Domain: window.TimeDomain, Range: 100, Slide: 25},
		{Domain: window.TimeDomain, Range: 70, Slide: 30},
		{Domain: window.CountDomain, Range: 100, Slide: 25},
	} {
		t.Run(spec.String(), func(t *testing.T) {
			cfg := mkCfg(agg.Func{Op: agg.Variance}, 16)
			cfg.Spec = spec
			events := sliceStream(spec, 600, 2, 8, 25, false, 9)
			run := func(m *ScalarManager, events []sliceEvent) (out []Result) {
				t.Helper()
				for _, e := range events {
					rs, err := m.OnTupleBatch(e.rows)
					if e.rows == nil {
						rs, err = m.OnWatermark(e.wm)
					}
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, rs...)
				}
				return out
			}
			straight, _ := NewScalarManager(cfg)
			want := run(straight, events)

			cfg.Store = storage.NewMemStore()
			m1, _ := NewScalarManager(cfg)
			crash := len(events)/2 | 1
			for events[crash].rows == nil || events[crash-1].rows == nil {
				crash++ // between two batches: in the middle of a slice
			}
			got := run(m1, events[:crash])
			if len(m1.slices) < 2 {
				t.Fatalf("%d open slices at the crash", len(m1.slices))
			}
			blob, err := m1.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			m2, _ := NewScalarManager(cfg)
			if err := m2.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			if err := m2.RewindStore(); err != nil {
				t.Fatal(err)
			}
			if again, _ := m2.SnapshotState(); !bytes.Equal(again, blob) {
				t.Error("the restored state re-encodes to other bytes")
			}
			got = append(got, run(m2, events[crash:])...)
			if len(got) != len(want) || len(want) < 20 {
				t.Fatalf("%d windows across the restore, %d straight through", len(got), len(want))
			}
			for i := range want {
				if g, w := got[i], want[i]; g.WindowID != w.WindowID || g.N != w.N || g.Mode != w.Mode || g.SampleN != w.SampleN ||
					math.Float64bits(g.Scalar) != math.Float64bits(w.Scalar) {
					t.Errorf("window %d: got %+v, want %+v", i, g, w)
				}
			}
		})
	}
}

// scalarU writes m's state as the 'u' writer did: no archive flag, and a
// table of per-window moments ahead of the slices.
func scalarU(t *testing.T, m *ScalarManager, carry []slice) []byte {
	t.Helper()
	v, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	tail := len(tuple.AppendUvar(nil, uint64(len(m.slices)))) + len(m.slices)*sliceBytes
	u := append([]byte{'u'}, v[2:len(v)-tail]...)
	u = tuple.AppendUvar(u, uint64(len(carry)))
	for _, c := range carry {
		u = c.acc.AppendTo(tuple.AppendI64(tuple.AppendI64(u, int64(c.lo)), int64(c.hi)))
	}
	return append(u, v[len(v)-tail:]...)
}

// TestSliceTableRejectsDamage: a blob whose slices are out of position
// order, or named by an assignment no position has, is corrupt, as is
// one whose state is the other path's.
func TestSliceTableRejectsDamage(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 16)
	cfg.Spec = window.Spec{Domain: window.TimeDomain, Range: 70, Slide: 30}
	m, _ := NewScalarManager(cfg)
	for i := 0; i < 100; i++ {
		ingestOne(m, tuple.New(int64(i), tuple.Float(1)))
	}
	good, _ := m.SnapshotState()
	damage := map[string]func(d *ScalarManager){
		"swapped":       func(d *ScalarManager) { d.slices[1], d.slices[2] = d.slices[2], d.slices[1] },
		"repeated":      func(d *ScalarManager) { d.slices[2] = d.slices[1] },
		"no such slice": func(d *ScalarManager) { d.slices[3].lo -= 2 },
		"inverted":      func(d *ScalarManager) { d.slices[0].lo, d.slices[0].hi = 5, 1 },
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			damaged, _ := NewScalarManager(cfg)
			if err := damaged.RestoreState(good); err != nil {
				t.Fatal(err)
			}
			f(damaged)
			blob, _ := damaged.SnapshotState()
			if fresh, _ := NewScalarManager(cfg); fresh.RestoreState(blob) == nil {
				t.Error("restored")
			}
		})
	}
	// A 'u' blob listed per-window moments, which only a writer that had
	// itself restored a 't' blob held, ahead of the slices. Its format is
	// retired: empty or carrying, it is refused whole.
	t.Run("carry in a u blob", func(t *testing.T) {
		fresh, _ := NewScalarManager(cfg)
		if err := fresh.RestoreState(good); err != nil {
			t.Fatal(err)
		}
		for _, carry := range [][]slice{nil, {{lo: 1, hi: 1}}} {
			if err := fresh.RestoreState(scalarU(t, m, carry)); !errors.Is(err, tuple.ErrCorrupt) {
				t.Errorf("restored a 'u' blob with %d carries: %v", len(carry), err)
			}
			if again, _ := fresh.SnapshotState(); !bytes.Equal(again, good) {
				t.Error("the refused blob changed the manager")
			}
		}
	})
	sampled := cfg
	sampled.DisableIncremental = true
	if s, _ := NewScalarManager(sampled); s.RestoreState(good) == nil {
		t.Error("a sampled manager restored slices")
	}
}
