package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"spear/internal/agg"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// archiveStreams are BenchmarkArchiveStore's two streams: DEC, one float
// a row with Poisson nanosecond gaps (Ts deltas of three bytes, now and
// then four), and DEBS, a route string and a fare.
func archiveStreams() map[string][]tuple.Tuple {
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
	return streams
}

// archiveDriver writes a stream into an archive over a MemStore at the
// default chunk of 512, in the engine's runs of 64, evicting panes once
// they are three behind (as windows close). Panes are counted in tuples,
// not in event time: the pane index only has to move the way a slide
// moves it.
type archiveDriver struct {
	stream []tuple.Tuple
	span   int64
	store  *storage.MemStore
	a      *archive
	n      int // tuples written
	run    [64]tuple.Tuple
	pos    [64]int64 // the rows' positions: in event time, their Ts
}

const archivePane = 15_000 // tuples a pane

func newArchiveDriver(stream []tuple.Tuple) *archiveDriver {
	store := storage.NewMemStore()
	return &archiveDriver{
		stream: stream, span: stream[len(stream)-1].Ts + 1, store: store,
		a: newArchive(store, "bench", window.Spec{Domain: window.TimeDomain, Range: 3, Slide: 1}, 512, false),
	}
}

// write archives the next k tuples of the stream, repeated with its
// timestamps shifted past its end as often as it takes.
func (d *archiveDriver) write(k int) error {
	for end := d.n + k; d.n < end; {
		p := int64(d.n / archivePane)
		r := min(len(d.run), end-d.n, archivePane-d.n%archivePane)
		for i := range d.run[:r] {
			d.run[i] = d.stream[(d.n+i)&(len(d.stream)-1)]
			d.run[i].Ts += int64((d.n+i)/len(d.stream)) * d.span
			d.pos[i] = d.run[i].Ts
		}
		if err := d.a.addRun(p, d.pos[:r], d.run[:r]); err != nil {
			return err
		}
		if d.n += r; d.n%archivePane == 0 {
			if err := d.a.evictBefore(p - 2); err != nil { // Slide is 1: pane p is position p
				return err
			}
		}
	}
	return nil
}

// BenchmarkArchiveStore is the write side of "τ is stored in S" alone:
// archiveDriver's archive.addRun and evictBefore into a MemStore. One op
// is one tuple.
func BenchmarkArchiveStore(b *testing.B) {
	streams := archiveStreams()
	for _, name := range []string{"dec", "debs"} {
		b.Run(name, func(b *testing.B) {
			d := newArchiveDriver(streams[name])
			b.ReportAllocs()
			b.ResetTimer()
			if err := d.write(b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := d.store.Stats()
			b.ReportMetric(float64(st.BytesStored)/float64(max(st.TuplesStored, 1)), "stored-B/tuple")
		})
	}
}

// TestArchiveStoreAllocs is BenchmarkArchiveStore's B/op as a gate: once
// eight panes have been written and evicted, writing sixteen more
// allocates under 0.2 bytes a tuple — what is left, ≈ 0.11, is a pane's
// name and its chunk table, once a pane. A chunk image allocated per
// Store reads 12 B/tuple on DEC and 26 on DEBS.
func TestArchiveStoreAllocs(t *testing.T) {
	streams := archiveStreams()
	for _, name := range []string{"dec", "debs"} {
		t.Run(name, func(t *testing.T) {
			d := newArchiveDriver(streams[name])
			if err := d.write(8 * archivePane); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := d.write(16 * archivePane); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perTuple := float64(after.TotalAlloc-before.TotalAlloc) / (16 * archivePane)
			t.Logf("%.3f B/tuple", perTuple)
			if perTuple >= 0.2 {
				t.Errorf("%.3f bytes allocated a tuple archived, want none (under 0.2)", perTuple)
			}
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
