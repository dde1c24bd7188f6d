package core

import (
	"fmt"
	"testing"

	"spear/internal/agg"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// refGroupedIngest is the per-tuple ingest body GroupedManager had
// before its entry points became adapters to ingestRun, kept here as the
// reference the kernel is held to: assignment, admission, the one hash
// of the key, one AddID per open window, then the archive, tuple by
// tuple, firing after every tuple in the count domain. It differs from
// that body in the places changed on purpose since (DESIGN.md §20),
// numbered below, and in that the anchor/lateness decision is the
// lifecycle's Admit on a run of one.
func refGroupedIngest(m *GroupedManager, t tuple.Tuple) ([]Result, error) {
	m.syncControl()
	count := m.cfg.Spec.Domain == window.CountDomain
	pos := m.lc.Pos(t.Ts, 0)
	if count {
		t.Ts = pos // panes index by position
	}
	lo, hi := m.cfg.Spec.Assign(pos)
	// (1) One lifecycle, the manager's own. Without declared groups the
	// manager used to clip by a cursor of its own that no tuple ever
	// started and that only a non-empty fire advanced, so it lagged its
	// window buffer's and opened windows the buffer had closed.
	first, ok := m.lc.Admit([]int64{pos}, lo, hi)
	if !ok {
		// (2) A late tuple is dropped whole, as on the scalar path: the
		// known path used to archive it, or count it in sheds, all the
		// same.
		// (3) Every manager books it in Metrics.LateDropped and leaves it
		// out of TuplesIn (the adapters, not this body, count).
		return nil, nil
	}
	// (4) Windows that start before position 0 are folded like any
	// other. Without declared groups that cursor started at 0, so the
	// manager held no metadata for them and answered them from its
	// buffer, ModeExact.
	gid := m.dict.ID(m.cfg.KeyBy(t))
	val := m.cfg.Value(t)
	for id := first; id <= hi; id++ {
		w, ok := m.wins[id]
		if !ok {
			w = m.open(id)
		}
		w.gs.AddID(gid, val)
		if w.known != nil {
			w.known.AddID(gid, val)
		}
		if m.shed {
			w.tainted = true
		}
	}
	// (5) Without declared groups the tuple went to a window buffer. It
	// now goes to the archive as with them, or, where the moments answer
	// every window, nowhere.
	if m.arc != nil {
		if m.shed {
			m.sheds++
		} else if err := m.arc.add(t); err != nil {
			return nil, err
		}
	}
	if count {
		return m.fire(m.lc.Seq())
	}
	return nil, nil
}

// TestGroupedKernelMatchesPerTupleIngest holds the one entry point of
// the grouped manager, on both of its paths and at several batch sizes, to
// the per-tuple reference: the same results field for field, the same
// late count and budget memory, and the same snapshot bytes at every
// watermark.
func TestGroupedKernelMatchesPerTupleIngest(t *testing.T) {
	specs := []window.Spec{
		{Domain: window.TimeDomain, Range: 100, Slide: 100}, // tumbling
		{Domain: window.TimeDomain, Range: 120, Slide: 60},  // overlap 2
		{Domain: window.TimeDomain, Range: 64, Slide: 8},    // overlap 8, a 64-batch spans 8 slides
		{Domain: window.CountDomain, Range: 90, Slide: 30},
		{Domain: window.CountDomain, Range: 70, Slide: 70},
	}
	aggs := []struct {
		name string
		f    agg.Func
	}{
		{"mean", agg.Func{Op: agg.Mean}},
		{"median", agg.Median()},
	}
	for _, known := range []int{0, 6} {
		for _, spec := range specs {
			for _, a := range aggs {
				t.Run(fmt.Sprintf("known=%d/%s/%s", known, spec, a.name), func(t *testing.T) {
					mk := func() *GroupedManager {
						m, err := NewGroupedManager(Config{
							Spec: spec, Agg: a.f, Value: tuple.FieldFloat(0), KeyBy: tuple.FieldString(1),
							// Chunks of 7 fill in the middle of runs.
							Epsilon: 0.25, Confidence: 0.95, BudgetTuples: 48, KnownGroups: known, ArchiveChunk: 7,
							Store: storage.NewMemStore(), Key: "k", Seed: 11,
						})
						if err != nil {
							t.Fatal(err)
						}
						return m
					}
					ops := kernelStream(2400, 16, 40, 5)
					ref := mk()
					want := kernelTrace(t, ref, ops, 1, func(ts []tuple.Tuple) ([]Result, error) {
						return refGroupedIngest(ref, ts[0])
					})
					if len(want) < 50 {
						t.Fatalf("only %d watermarks traced", len(want))
					}
					if late := ref.LateDropped(); spec.Domain == window.TimeDomain && late == 0 {
						t.Fatal("the stream dropped no tuple as late")
					}
					check := func(name string, got []string) {
						t.Helper()
						if len(got) != len(want) {
							t.Fatalf("%s: %d watermarks, want %d", name, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: differs from the per-tuple reference at watermark %d:\n%s", name, i, firstDiffLine(got[i], want[i]))
							}
						}
					}
					for _, size := range []int{1, 7, 64, 1000} {
						m := mk()
						check(fmt.Sprintf("OnTupleBatch/%d", size), kernelTrace(t, m, ops, size, m.OnTupleBatch))
					}
				})
			}
		}
	}
}
