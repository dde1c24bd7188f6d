package core

import (
	"math"
	"testing"

	"spear/internal/agg"
	"spear/internal/sample"
	"spear/internal/storage"
	"spear/internal/tuple"
)

// TestScalarIncrementalWindowsKeepNoSample pins that a window answered
// from its incremental state builds no reservoir (the row and column
// kernels share newWin), and that a snapshot from before that change — reservoir and
// incremental state side by side — restores to the same thing and
// recovers bit-identically to an uninterrupted run.
func TestScalarIncrementalWindowsKeepNoSample(t *testing.T) {
	cfg := mkCfg(agg.Func{Op: agg.Mean}, 16)
	cfg.Spec.Slide = 25 // four windows per tuple
	tup := func(i int) tuple.Tuple { return tuple.New(int64(i), tuple.Float(float64(i%37)+0.25)) }
	run := func(m *ScalarManager, from, to int) []Result {
		t.Helper()
		var out []Result
		for i := from; i < to; i++ {
			if _, err := m.OnTuple(tup(i)); err != nil {
				t.Fatal(err)
			}
			if i%25 == 24 {
				rs, err := m.OnWatermark(int64(i + 1))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, rs...)
			}
		}
		return out
	}
	sampleFree := func(m *ScalarManager) {
		t.Helper()
		if len(m.wins) == 0 {
			t.Fatal("no live windows to inspect")
		}
		for id, w := range m.wins {
			if w.res != nil || w.inc == nil {
				t.Fatalf("window %d: res=%v inc=%v, want no sample beside the incremental state", id, w.res != nil, w.inc != nil)
			}
		}
	}

	straight, _ := NewScalarManager(cfg)
	want := run(straight, 0, 300)

	cfg1 := cfg
	cfg1.Store = storage.NewMemStore()
	m1, _ := NewScalarManager(cfg1)
	got := run(m1, 0, 160)
	sampleFree(m1)
	// What the previous writer put in the blob: a fed reservoir on
	// every window.
	for id, w := range m1.wins {
		w.res = sample.NewReservoir(m1.curBudget, sample.DeriveSeed(cfg.Seed, int64(id)), sample.AlgoL)
		w.res.Add(1)
	}
	blob, err := m1.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := NewScalarManager(cfg1)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	sampleFree(m2)
	got = append(got, run(m2, 160, 300)...)

	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d results across the restore, %d straight through", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.WindowID != w.WindowID || g.N != w.N || g.Mode != w.Mode || g.SampleN != w.SampleN ||
			math.Float64bits(g.Scalar) != math.Float64bits(w.Scalar) {
			t.Errorf("result %d: got %+v, want %+v", i, g, w)
		}
	}
}
