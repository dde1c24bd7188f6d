package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// deleteLog is a MemStore that remembers which keys were stored and
// which were deleted.
type deleteLog struct {
	*storage.MemStore
	stored  map[string]bool
	deleted []string
}

func (s *deleteLog) Store(key string, ts []tuple.Tuple) error {
	s.stored[key] = true
	return s.MemStore.Store(key, ts)
}

func (s *deleteLog) Delete(key string) error {
	s.deleted = append(s.deleted, key)
	return s.MemStore.Delete(key)
}

// TestTimestampGapCostsNothingAtTheNextWatermark is the regression test
// for fires and archive eviction that walked every window id and every
// pane index across a gap in the stream: two tuples 10⁹ slides apart
// made the next watermark 10⁹ map lookups, Sprintfs and store Deletes
// (a stall of minutes). The watermark after the gap must cost the
// windows and panes that exist: the same results in the same order,
// Deletes for stored panes only, and no measurable time.
func TestTimestampGapCostsNothingAtTheNextWatermark(t *testing.T) {
	const gap = 1_000_000_000
	spec := window.Spec{Domain: window.TimeDomain, Range: 3, Slide: 1}
	base := func(store storage.SpillStore) Config {
		return Config{
			Spec: spec, Agg: agg.Median(), Value: tuple.FieldFloat(0),
			Epsilon: 0.10, Confidence: 0.95, BudgetTuples: 8, ArchiveChunk: 2,
			Store: store, Key: "gap", Seed: 1,
		}
	}
	kinds := []struct {
		name string
		mk   func(cfg Config) (Manager, error)
	}{
		{"scalar", func(cfg Config) (Manager, error) { return NewScalarManager(cfg) }},
		// Its fire assembles windows from slices: the ids come from the
		// slices that exist.
		{"scalar-slices", func(cfg Config) (Manager, error) {
			cfg.Agg = agg.Func{Op: agg.Sum}
			return NewScalarManager(cfg)
		}},
		{"grouped-known", func(cfg Config) (Manager, error) {
			cfg.KeyBy, cfg.KnownGroups = tuple.FieldString(1), 2
			return NewGroupedManager(cfg)
		}},
		{"incremental", func(cfg Config) (Manager, error) {
			cfg.Agg = agg.Func{Op: agg.Sum}
			return NewIncrementalManager(cfg)
		}},
		// The single buffer's fire walked the id range after the other
		// three stopped, with a scan of the buffer per id.
		{"exact", func(cfg Config) (Manager, error) { return NewExactManager(cfg) }},
		// Groups unknown: the path that held a window buffer, and
		// archives since.
		{"grouped-buffered", func(cfg Config) (Manager, error) {
			cfg.KeyBy = tuple.FieldString(1)
			return NewGroupedManager(cfg)
		}},
	}
	for _, k := range kinds {
		for _, deferDel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/defer=%v", k.name, deferDel), func(t *testing.T) {
				store := &deleteLog{MemStore: storage.NewMemStore(), stored: map[string]bool{}}
				cfg := base(store)
				cfg.DeferStoreDeletes = deferDel
				m, err := k.mk(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Three tuples a tick: each pane stores one chunk of two
				// and holds one tuple back.
				feed := func(ts int64) {
					for i := 0; i < 3; i++ {
						if _, err := m.OnTuple(tuple.New(ts, tuple.Float(float64(ts%7+int64(i))), tuple.String_("g"))); err != nil {
							t.Fatal(err)
						}
					}
				}
				var got []window.ID
				fire := func(wm int64) {
					t.Helper()
					type fired struct {
						rs  []Result
						err error
					}
					done := make(chan fired, 1)
					t0 := time.Now()
					go func() {
						rs, err := m.OnWatermark(wm)
						done <- fired{rs, err}
					}()
					select {
					case f := <-done:
						if f.err != nil {
							t.Fatal(f.err)
						}
						for _, r := range f.rs {
							got = append(got, r.WindowID)
						}
					case <-time.After(2 * time.Second):
						t.Fatalf("OnWatermark(%d) still running after 2 s: it is walking the gap", wm)
					}
					if d := time.Since(t0); d > 100*time.Millisecond {
						t.Errorf("OnWatermark(%d) took %v", wm, d)
					}
				}
				feed(0)
				feed(1)
				feed(2)
				fire(3) // windows -2, -1, 0; pane 0 goes
				feed(gap)
				fire(gap + 1)       // windows 1, 2 and gap-2; panes 1, 2 go
				feed(2 * gap)       // a second gap, with windows open across it
				fire(math.MaxInt64) // gap-1, gap, 2·gap-2 … 2·gap

				want := []window.ID{-2, -1, 0, 1, 2, gap - 2, gap - 1, gap, 2*gap - 2, 2*gap - 1, 2 * gap}
				if !slices.Equal(got, want) {
					t.Errorf("fired windows %v, want %v", got, want)
				}
				deleted := store.deleted
				if d, ok := m.(interface{ TakeDeferredDeletes() []string }); ok && deferDel {
					if len(deleted) > 0 {
						t.Errorf("deleted %v with deletes deferred", deleted)
					}
					deleted = d.TakeDeferredDeletes()
				}
				var wantDeleted []string
				if k.name == "scalar" || k.name == "grouped-known" || k.name == "grouped-buffered" { // the others archive nothing
					for _, p := range []int64{0, 1, 2, gap, 2 * gap} {
						wantDeleted = append(wantDeleted, fmt.Sprintf("gap/p%d", p))
					}
				}
				if !slices.Equal(deleted, wantDeleted) {
					t.Errorf("panes deleted: %v, want %v", deleted, wantDeleted)
				}
				for _, key := range deleted {
					if !store.stored[key] {
						t.Errorf("Delete(%q): never stored", key)
					}
				}
			})
		}
	}
}
