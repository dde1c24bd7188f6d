package core

import (
	"os"
	"path/filepath"
	"testing"

	"spear/internal/agg"
	"spear/internal/tuple"
)

// FuzzManagerRestore throws arbitrary bytes at every manager's
// RestoreState. Snapshots come back from a store a crash may have
// mangled, so decoding must reject damage with an error — never panic,
// never accept bytes that then break OnTupleBatch/OnWatermark.
func FuzzManagerRestore(f *testing.F) {
	mkManagers := func() []Manager {
		scalar, err := NewScalarManager(mkCfg(agg.Func{Op: agg.Mean}, 64))
		if err != nil {
			panic(err)
		}
		gcfg := mkCfg(agg.Func{Op: agg.Mean}, 64)
		gcfg.KeyBy = tuple.FieldString(1)
		grouped, err := NewGroupedManager(gcfg)
		if err != nil {
			panic(err)
		}
		// Groups unknown and a holistic aggregate: the manager archives.
		// Its 'g' blob nested a window buffer's: the checked-in
		// grouped_g_buffered seed, which, like the 't' blob scalar_v3 and
		// the 'b' and 'a' blobs exact_b_* and incremental_a_*, is of a
		// retired format and must be refused. The checked-in seeds at
		// the current tags are scalar_w_slices, grouped_j_panes (its pane
		// table), exact_c_* and incremental_d_accumulators.
		gcfg.Agg = agg.Median()
		median, err := NewGroupedManager(gcfg)
		if err != nil {
			panic(err)
		}
		exact, err := NewExactManager(mkCfg(agg.Func{Op: agg.Mean}, 64))
		if err != nil {
			panic(err)
		}
		inc, err := NewIncrementalManager(mkCfg(agg.Func{Op: agg.Sum}, 64))
		if err != nil {
			panic(err)
		}
		return []Manager{scalar, grouped, median, exact, inc}
	}

	// Seed with each manager's own canonical snapshot, empty and after
	// absorbing a little stream.
	for _, m := range mkManagers() {
		s := m.(interface{ SnapshotState() ([]byte, error) })
		b, err := s.SnapshotState()
		if err != nil {
			panic(err)
		}
		f.Add(b)
		for i := 0; i < 250; i++ {
			_, _ = ingestOne(m, tuple.New(int64(i), tuple.Float(float64(i%9)), tuple.String_("g")))
		}
		if b, err = s.SnapshotState(); err != nil {
			panic(err)
		}
		f.Add(b)
	}
	// What a writer from before incremental queries stopped archiving
	// left: a 'u' blob of an incremental query with panes in the archive
	// section, of a retired format and refused.
	archived, err := os.ReadFile(filepath.Join("testdata", "retired", "scalar_mean_slices_archived.snap"))
	if err != nil {
		panic(err)
	}
	f.Add(archived)
	f.Add([]byte{})
	f.Add([]byte{0x51})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, m := range mkManagers() {
			r := m.(interface{ RestoreState([]byte) error })
			if err := r.RestoreState(b); err != nil {
				continue
			}
			// Accepted bytes must leave a usable manager.
			for i := 0; i < 50; i++ {
				if _, err := ingestOne(m, tuple.New(int64(1e6+i*10), tuple.Float(1), tuple.String_("g"))); err != nil {
					t.Fatalf("%T broken after accepted restore: %v", m, err)
				}
			}
			if _, err := m.OnWatermark(2e6); err != nil {
				t.Fatalf("%T watermark broken after accepted restore: %v", m, err)
			}
		}
	})
}
