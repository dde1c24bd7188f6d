package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/col"
	"spear/internal/control"
	"spear/internal/obs"
	"spear/internal/spill"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// This file tests what a tuple costs a manager where the cost is paid:
// the allocations of its ingest calls, the telemetry they book, what
// they write into the controller cell, and whether they wait on the
// secondary store.

// hotSlide is the slide of the streams below, one tuple a tick; a
// window spans four slides.
const hotSlide = 2500

var hotSpec = window.Spec{Domain: window.TimeDomain, Range: 4 * hotSlide, Slide: hotSlide}

// hotStream returns n tuples (value[, key of 50]) to be cycled through,
// each given its tick as Ts.
func hotStream(n int, grouped bool) []tuple.Tuple {
	rng := rand.New(rand.NewSource(1))
	keys := make([]tuple.Value, 50)
	for i := range keys {
		keys[i] = tuple.String_(fmt.Sprintf("route-%02d", i))
	}
	out := make([]tuple.Tuple, n)
	for i := range out {
		v := tuple.Float(5 + rng.Float64()*40)
		if grouped {
			out[i] = tuple.New(0, v, keys[rng.Intn(len(keys))])
		} else {
			out[i] = tuple.New(0, v)
		}
	}
	return out
}

// hotCases are the SPEAr managers on each of their ingest paths, and the
// two baselines. The grouped ones: groups unknown, answered from the
// moments (the path that once buffered its windows) or archived for a
// stratified sample; groups known, reservoirs filled at arrival. The
// shed ones run with shedding on: the windows are tainted and the
// archive write skipped. Only the scalar SPEAr manager has a column
// lane. The baselines (mk set): Storm buffers every tuple, Inc-Storm
// folds it into its windows' accumulators.
var hotCases = []struct {
	name    string
	grouped bool
	shed    bool
	cfg     func(*Config)
	mk      func(Config) (Manager, error) // nil: the SPEAr manager of the shape
}{
	{"scalar_median", false, false, func(c *Config) { c.Agg, c.BudgetTuples = agg.Median(), 200 }, nil},
	{"scalar_mean", false, false, func(c *Config) { c.Agg = agg.Func{Op: agg.Mean} }, nil},
	{"grouped_buffered", true, false, func(c *Config) { c.Agg = agg.Func{Op: agg.Mean} }, nil},
	{"grouped_median", true, false, func(c *Config) { c.Agg = agg.Median() }, nil},
	{"grouped_known", true, false, func(c *Config) { c.Agg, c.KnownGroups = agg.Median(), 50 }, nil},
	{"scalar_median_shed", false, true, func(c *Config) { c.Agg, c.BudgetTuples = agg.Median(), 200 }, nil},
	{"grouped_known_shed", true, true, func(c *Config) { c.Agg, c.KnownGroups = agg.Median(), 50 }, nil},
	{"storm_median", false, false, func(c *Config) { c.Agg = agg.Median() }, func(c Config) (Manager, error) { return NewExactManager(c) }},
	{"inc_storm_mean", false, false, func(c *Config) { c.Agg = agg.Func{Op: agg.Mean} }, func(c Config) (Manager, error) { return NewIncrementalManager(c) }},
}

// hotManager builds case i's manager over a MemStore, with its own
// telemetry bundle and cell attached (nil for none).
func hotManager(t *testing.T, i int, cell *control.Cell) (Manager, *obs.Worker) {
	t.Helper()
	c := hotCases[i]
	cfg := Config{
		Spec: hotSpec, Value: tuple.FieldFloat(0),
		Epsilon: 0.10, Confidence: 0.95, BudgetTuples: 1000,
		Store: storage.NewMemStore(), Key: "hot", Seed: 1,
		Metrics: &obs.Worker{},
		Cell:    cell,
	}
	c.cfg(&cfg)
	var m Manager
	var err error
	if c.mk != nil {
		m, err = c.mk(cfg)
	} else if c.grouped {
		cfg.KeyBy = tuple.FieldString(1)
		m, err = NewGroupedManager(cfg)
	} else {
		m, err = NewScalarManager(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if c.shed {
		m.(interface{ SetShedding(bool) }).SetShedding(true)
	}
	return m, cfg.Metrics
}

// ingestAllocs feeds m warm + measured slides of stream in 64-tuple
// batches through OnTupleBatch or (columnar, a scalar manager) the
// inert OnColumnBatch the benchmark's core probe times, firing each
// slide's watermark, and returns the heap allocations per tuple its
// ingest calls made over the measured slides. The fires, the batches'
// preparation and the warm slides — where windows, archive buffers and
// pools reach their steady size — are outside the count.
func ingestAllocs(t *testing.T, m Manager, columnar bool, stream []tuple.Tuple, warm, measured int) float64 {
	t.Helper()
	// Other goroutines' allocations would count: one P, as in
	// testing.AllocsPerRun.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const batch = 64
	rows := make([]tuple.Tuple, hotSlide)
	var runs [][]tuple.Tuple
	for i := 0; i < hotSlide; i += batch {
		runs = append(runs, rows[i:min(i+batch, hotSlide)])
	}
	cbs := make([]*col.ColumnBatch, len(runs))
	for i := range cbs {
		cbs[i] = new(col.ColumnBatch)
	}
	var ms runtime.MemStats
	var mallocs uint64
	for s := 0; s < warm+measured; s++ {
		tick := int64(s) * hotSlide
		for i := range rows {
			rows[i] = stream[(int(tick)+i)%len(stream)]
			rows[i].Ts = tick + int64(i)
		}
		if columnar {
			for i, run := range runs {
				cbs[i].SetRows(run)
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i, run := range runs {
			var err error
			if columnar {
				_, err = m.(*ScalarManager).OnColumnBatch(cbs[i])
			} else {
				_, err = m.OnTupleBatch(run)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		if s >= warm {
			mallocs += ms.Mallocs - before
		}
		if _, err := m.OnWatermark(tick + hotSlide); err != nil {
			t.Fatal(err)
		}
	}
	return float64(mallocs) / float64(measured*hotSlide)
}

// TestIngestAllocsPerTuple holds every ingest path of both SPEAr
// managers, shedding or not, the scalar one through OnColumnBatch too,
// and both baselines to at most 0.05 heap allocations per tuple in
// the steady state (≈ 0.01 on the sampled scalar path — reservoirs opened and
// chunks stored, a window or a chunk at a time — 0 to 0.006 elsewhere,
// 0 for Storm and 0.0004 for Inc-Storm, an accumulator a window), so
// anything a kernel allocates per tuple or per run fails here: a
// fmt.Sprintf per element reads 2. It also
// holds the telemetry a fire books to the one place it is booked:
// ProcTime observed once per fired window (Config.countFire), never per
// tuple. The histogram takes a mutex per observation — the one lock an
// ingest kernel can reach — so this count is what stands in for a
// contention profile, which records contended locks only.
func TestIngestAllocsPerTuple(t *testing.T) {
	for i, c := range hotCases {
		stream := hotStream(1<<14, c.grouped)
		for _, columnar := range []bool{false, true} {
			name := c.name + "/rows"
			if columnar {
				if c.mk != nil || c.grouped {
					continue // OnColumnBatch is the scalar manager's
				}
				name = c.name + "/columnar"
			}
			t.Run(name, func(t *testing.T) {
				m, w := hotManager(t, i, nil)
				perTuple := ingestAllocs(t, m, columnar, stream, 8, 24)
				t.Logf("%.4f allocs/tuple", perTuple)
				if perTuple > 0.05 {
					t.Errorf("ingest made %.4f heap allocations per tuple, want at most 0.05", perTuple)
				}
				fired, observed := w.WindowsTotal.Load(), w.ProcTime.Count()
				if fired == 0 || int64(observed) != fired {
					t.Errorf("ProcTime holds %d observations for %d fired windows, want one each", observed, fired)
				}
				if shed := w.TuplesShed.Load(); c.shed != (shed > 0) {
					t.Errorf("%d tuples shed", shed)
				}
			})
		}
	}
}

// TestIngestNeverWritesTheCell holds the controller cell to one
// direction (DESIGN.md §17.1): a manager reads it at every entry point
// and never publishes into it. The cell holds what the manager refuses —
// shedding where there is no archive write to skip, a negative budget —
// so a manager that wrote back its own view (budget 0, no shedding)
// would leave something else there.
func TestIngestNeverWritesTheCell(t *testing.T) {
	for _, i := range []int{1, 2} { // scalar_mean (incremental), grouped_buffered (KnownGroups 0)
		c := hotCases[i]
		t.Run(c.name, func(t *testing.T) {
			cell := control.NewCell(1000)
			cell.Set(-1, true)
			m, _ := hotManager(t, i, cell)
			stream := hotStream(3*hotSlide, c.grouped)
			for j := range stream {
				stream[j].Ts = int64(j)
			}
			steps := []func() error{
				func() error { _, err := ingestOne(m, stream[0]); return err },
				func() error { _, err := m.OnTupleBatch(stream[1:hotSlide]); return err },
				func() error { _, err := m.OnTupleBatch(stream[hotSlide : 2*hotSlide]); return err },
				func() error { _, err := m.OnWatermark(2 * hotSlide); return err },
				func() error { _, err := m.OnTupleBatch(stream[2*hotSlide:]); return err },
				func() error { _, err := m.OnWatermark(1 << 40); return err },
			}
			for _, step := range steps {
				if err := step(); err != nil {
					t.Fatal(err)
				}
				if b, shed := cell.Budget(), cell.Shedding(); b != -1 || !shed {
					t.Fatalf("the cell reads budget %d, shedding %v after a manager call; the controller wrote -1, true", b, shed)
				}
			}
		})
	}
}

// heldStore is a MemStore whose Store waits for release: a secondary
// store that has stalled.
type heldStore struct {
	*storage.MemStore
	release chan struct{}
	entered chan struct{} // closed by the first Store
	once    sync.Once
}

func (s *heldStore) Store(key string, ts []tuple.Tuple) error {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return s.MemStore.Store(key, ts)
}

// TestIngestDoesNotWaitForTheStore holds every spill seam on the ingest
// path to the async plane (DESIGN.md §13.3): with an async spill.Plane
// as Config.Store and the store behind it stalled, ingest of several
// chunks' worth returns — the writes wait in the plane's queue, not in
// the caller. Once the store is released the results equal a MemStore
// run's, exact fallbacks read from the store included. The seam is the
// archive, under the sampled scalar manager and the grouped one with
// groups unknown.
func TestIngestDoesNotWaitForTheStore(t *testing.T) {
	spec := window.Spec{Domain: window.TimeDomain, Range: 400, Slide: 100}
	stream := hotStream(1000, true)
	for i := range stream {
		stream[i].Ts = int64(i)
	}
	for _, c := range []struct {
		name string
		mk   func(Config) (Manager, error)
	}{
		{"scalar_median", func(cfg Config) (Manager, error) { return NewScalarManager(cfg) }},
		{"grouped_median", func(cfg Config) (Manager, error) {
			cfg.KeyBy = tuple.FieldString(1)
			return NewGroupedManager(cfg)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(store storage.SpillStore) Manager {
				m, err := c.mk(Config{
					Spec: spec, Agg: agg.Median(), Value: tuple.FieldFloat(0),
					Epsilon: 0.02, Confidence: 0.95, BudgetTuples: 50, ArchiveChunk: 64,
					Store: store, Key: "held", Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			ingest := func(m Manager) ([]Result, error) {
				var out []Result
				for _, tp := range stream {
					rs, err := ingestOne(m, tp)
					if err != nil {
						return nil, err
					}
					out = append(out, rs...)
				}
				return out, nil
			}
			fire := func(m Manager, ingested []Result) []Result {
				rs, err := m.OnWatermark(1 << 40)
				if err != nil {
					t.Fatal(err)
				}
				return append(ingested, rs...)
			}

			ref := build(storage.NewMemStore())
			refIn, err := ingest(ref)
			if err != nil {
				t.Fatal(err)
			}
			want := fire(ref, refIn)
			if len(want) == 0 || !want[0].FetchedFromStore {
				t.Fatal("no window was answered from the store; the case tests nothing")
			}

			held := &heldStore{MemStore: storage.NewMemStore(), release: make(chan struct{}), entered: make(chan struct{})}
			plane := spill.NewPlane(held, spill.Options{Workers: 2, QueueBytes: 1 << 30})
			defer plane.Close()
			m := build(plane)
			type ingested struct {
				rs  []Result
				err error
			}
			done := make(chan ingested, 1)
			go func() {
				rs, err := ingest(m)
				done <- ingested{rs, err}
			}()
			var in ingested
			select {
			case in = <-done:
			case <-time.After(10 * time.Second):
				close(held.release)
				<-done
				t.Fatal("ingest waited on the stalled store: a spill seam bypasses the async plane")
			}
			if in.err != nil {
				t.Fatal(in.err)
			}
			select {
			case <-held.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("nothing reached the store: the case tests nothing")
			}
			close(held.release)
			sameResultSets(t, want, fire(m, in.rs))
		})
	}
}
