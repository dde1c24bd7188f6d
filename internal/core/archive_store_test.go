package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spear/internal/agg"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// BenchmarkArchiveStore is the write side of "τ is stored in S" alone:
// archive.addRun into a MemStore at the default chunk of 512, fed in the
// engine's runs of 64, panes evicted once they are three behind (as
// windows close). One op is one tuple. The two
// streams are the benchmark's: DEC, one float a row with Poisson
// nanosecond gaps (Ts deltas of three bytes, now and then four), and
// DEBS, a route string and a fare.
func BenchmarkArchiveStore(b *testing.B) {
	const perPane = 15_000
	rng := rand.New(rand.NewSource(1))
	gap := func(mean float64) int64 { return int64(rng.ExpFloat64()*mean) + 1 }
	streams := map[string][]tuple.Tuple{"dec": make([]tuple.Tuple, 1<<16), "debs": make([]tuple.Tuple, 1<<16)}
	var decTs, debsTs int64
	for i := range streams["dec"] {
		decTs += gap(958_000) // 1044 tuples/s
		streams["dec"][i] = tuple.New(decTs, tuple.Float(40+rng.Float64()*1460))
		debsTs += gap(180e6) // 5.56 tuples/s
		streams["debs"][i] = tuple.New(debsTs, tuple.String_(fmt.Sprintf("route-%06d", rng.Intn(600_000))), tuple.Float(rng.ExpFloat64()*12))
	}
	for _, name := range []string{"dec", "debs"} {
		stream := streams[name]
		span := stream[len(stream)-1].Ts + 1
		b.Run(name, func(b *testing.B) {
			store := storage.NewMemStore()
			a := newArchive(store, "bench", window.Spec{Domain: window.TimeDomain, Range: 3, Slide: 1}, 512, false)
			var (
				run [64]tuple.Tuple
				pos [64]int64 // the rows' positions: in event time, their Ts
			)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				// Panes are counted in tuples here, not in event time: the
				// pane index only has to move the way a slide moves it.
				p := int64(n / perPane)
				k := min(len(run), b.N-n, perPane-n%perPane)
				for i := range run[:k] {
					run[i] = stream[(n+i)&(len(stream)-1)]
					run[i].Ts += int64((n+i)/len(stream)) * span
					pos[i] = run[i].Ts
				}
				if err := a.addRun(p, pos[:k], run[:k]); err != nil {
					b.Fatal(err)
				}
				if n += k; n%perPane == 0 {
					if err := a.evictBefore(p - 2); err != nil { // Slide is 1: pane p is position p
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := store.Stats()
			b.ReportMetric(float64(st.BytesStored)/float64(max(st.TuplesStored, 1)), "stored-B/tuple")
		})
	}
}

// TestRewindRefusesADirectoryOfAnotherFormat is the loud half of the
// segment format policy: a snapshot that lists archive panes, restored
// over a FileStore directory whose segments this binary does not read
// (here: renamed to the ".seg" an older binary wrote), fails in rewind
// with the pane named, rather than answering an exact fallback from
// nothing.
func TestRewindRefusesADirectoryOfAnotherFormat(t *testing.T) {
	dir := t.TempDir()
	cfg := func() Config {
		fs, err := storage.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Spec:    window.Spec{Domain: window.TimeDomain, Range: 300, Slide: 100},
			Agg:     agg.Median(),
			Value:   tuple.FieldFloat(0),
			Epsilon: 0.10, Confidence: 0.95, BudgetTuples: 20, ArchiveChunk: 16,
			Store: fs, Key: "q/scalar/0", Seed: 1,
		}
	}
	m, err := NewScalarManager(cfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]tuple.Tuple, 250)
	for i := range rows {
		rows[i] = tuple.New(int64(i), tuple.Float(float64(i%17)))
	}
	if _, err := m.OnTupleBatch(rows); err != nil {
		t.Fatal(err)
	}
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.cseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("snapshot left %d segments (%v), want the flushed panes", len(segs), err)
	}
	for _, seg := range segs {
		if err := os.Rename(seg, strings.TrimSuffix(seg, ".cseg")+".seg"); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewScalarManager(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if err := r.RewindStore(); err == nil || !strings.Contains(err.Error(), "missing from store") {
		t.Fatalf("RewindStore over a directory of .seg files: %v, want an archive pane missing from store", err)
	}
}
