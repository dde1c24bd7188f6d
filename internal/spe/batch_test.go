package spe

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/col"
	"spear/internal/core"
	"spear/internal/leakcheck"
	"spear/internal/obs"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// ---- Shuffle counter regression -----------------------------------------

// TestShuffleCounterStaysBounded pins the overflow fix: the round-robin
// counter must never grow unboundedly, because on int wrap `next % n`
// turns negative and indexes out of channel-slice bounds.
func TestShuffleCounterStaysBounded(t *testing.T) {
	s := NewShuffle()
	for i := 0; i < 10_000; i++ {
		got := s.Route(tuple.Tuple{}, 3)
		if got != i%3 {
			t.Fatalf("route %d = %d, want %d", i, got, i%3)
		}
		if s.next < 0 || s.next >= 3 {
			t.Fatalf("counter escaped [0,3): %d", s.next)
		}
	}
}

// TestShuffleSurvivesWrap simulates the pre-fix failure mode directly: a
// counter at MaxInt (the state an unbounded increment eventually
// reaches) must keep routing in range instead of panicking.
func TestShuffleSurvivesWrap(t *testing.T) {
	s := &Shuffle{next: math.MaxInt}
	seen := make(map[int]bool)
	for i := 0; i < 12; i++ {
		got := s.Route(tuple.Tuple{}, 4)
		if got < 0 || got >= 4 {
			t.Fatalf("route out of range: %d", got)
		}
		seen[got] = true
	}
	if len(seen) != 4 {
		t.Errorf("round-robin degenerated: only %d of 4 workers hit", len(seen))
	}
	// And a wrapped-negative counter (post-overflow state) recovers too.
	s = &Shuffle{next: -7}
	if got := s.Route(tuple.Tuple{}, 4); got < 0 || got >= 4 {
		t.Fatalf("negative counter routed out of range: %d", got)
	}
}

// TestShuffleAtPhase pins NewShuffleAt's recovery semantics: the phase
// of a fresh shuffle after k tuples is k, so the first route is k % n
// and round-robin continues from there.
func TestShuffleAtPhase(t *testing.T) {
	for _, start := range []int{0, 1, 2, 3, 7, 1000003} {
		s := NewShuffleAt(start)
		for i := 0; i < 9; i++ {
			want := (start + i) % 4
			if got := s.Route(tuple.Tuple{}, 4); got != want {
				t.Fatalf("start %d, route %d = %d, want %d", start, i, got, want)
			}
		}
	}
	if got := NewShuffleAt(-5).Route(tuple.Tuple{}, 4); got != 0 {
		t.Errorf("negative start must clamp to phase 0, got %d", got)
	}
}

// TestShuffleRouteMatchesModulo holds the compare-and-wrap Route to
// the form it replaced (reduce the counter mod n, then step it): same
// routed sequence for every n and start phase, including n changing
// between calls, which is the one way the counter can sit at or past n.
func TestShuffleRouteMatchesModulo(t *testing.T) {
	modulo := func(next *int, n int) int {
		if *next < 0 {
			*next = 0
		}
		i := *next % n
		*next = i + 1
		if *next >= n {
			*next = 0
		}
		return i
	}
	widths := [][]int{
		{1}, {2}, {3}, {7},
		{7, 7, 7, 2, 2, 3, 1, 7, 7, 7, 7, 7, 3, 3, 2, 7}, // shrinking and growing mid-stream
	}
	for _, ns := range widths {
		for _, start := range []int{0, 1, 2, 3, 6, 7, 8, 1000003, -5} {
			s, ref := NewShuffleAt(start), max(start, 0)
			for i := 0; i < 50; i++ {
				n := ns[i%len(ns)]
				want := modulo(&ref, n)
				if got := s.Route(tuple.Tuple{}, n); got != want || s.next != ref {
					t.Fatalf("widths %v, start %d, call %d (n=%d): routed %d with counter %d, modulo form %d with %d",
						ns, start, i, n, got, s.next, want, ref)
				}
			}
		}
	}
}

// ---- errOnce -------------------------------------------------------------

// TestErrOnceConcurrent hammers the atomic fast path from many
// goroutines: get() must be nil before any set, and after concurrent
// sets every reader must observe exactly one stable winner.
func TestErrOnceConcurrent(t *testing.T) {
	var e errOnce
	if e.get() != nil {
		t.Fatal("fresh errOnce not nil")
	}

	const writers, readers = 16, 16
	errs := make([]error, writers)
	for i := range errs {
		errs[i] = fmt.Errorf("worker %d failed", i)
	}
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < writers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			e.set(nil) // nil must never win
			e.set(errs[i])
		}(i)
	}
	for i := 0; i < readers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			for j := 0; j < 1000; j++ {
				if err := e.get(); err != nil {
					// Once visible, the value must be one of the
					// candidate errors and must never change.
					first := err
					for k := 0; k < 10; k++ {
						if again := e.get(); again != first {
							t.Errorf("errOnce changed: %v → %v", first, again)
							return
						}
					}
					return
				}
			}
		}()
	}
	start.Done()
	done.Wait()

	winner := e.get()
	if winner == nil {
		t.Fatal("no error recorded")
	}
	found := false
	for _, cand := range errs {
		if winner == cand {
			found = true
		}
	}
	if !found {
		t.Errorf("winner %v is not one of the set errors", winner)
	}
	e.set(fmt.Errorf("late loser"))
	if e.get() != winner {
		t.Error("later set displaced the first error")
	}
}

// ---- batch-boundary semantics -------------------------------------------

// runPipeline executes a map → windowed pipeline, each worker's manager
// from mk, over a deterministic stream (tuple i at tick i, value i mod
// 13) at the given batch size and returns results sorted by (window
// start, worker).
func runPipeline(t *testing.T, mk ManagerFactory, n, batch, par int) []core.Result {
	t.Helper()
	var in []tuple.Tuple
	for i := 0; i < n; i++ {
		in = append(in, tuple.New(int64(i), tuple.Float(float64(i%13))))
	}
	sink := &collectSink{}
	tp := NewTopology(Config{WatermarkPeriod: 100, BatchSize: batch}).
		SetSpout(NewSliceSpout(in)).
		AddMap("id", 0, func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true }).
		SetWindowed("w", par, nil, mk).
		SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(sink.res))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := sink.res[idx[a]], sink.res[idx[b]]
		if ra.Start != rb.Start {
			return ra.Start < rb.Start
		}
		return sink.wrk[idx[a]] < sink.wrk[idx[b]]
	})
	out := make([]core.Result, len(idx))
	for i, j := range idx {
		out[i] = sink.res[j]
	}
	return out
}

// TestBatchBoundarySemantics runs the same pipeline at batch sizes 1
// (per-tuple), 2, 64, and one larger than the whole stream, and demands
// loss-free, late-drop-free output at every size: each window's count
// must be exact, which can only happen if no data tuple is ever
// stranded behind (or overtaken by) a watermark at a flush boundary.
func TestBatchBoundarySemantics(t *testing.T) {
	leakcheck.Check(t)
	const n = 2000
	for _, batch := range []int{1, 2, 64, n + 500} {
		for _, par := range []int{1, 3} {
			t.Run(fmt.Sprintf("batch%d/par%d", batch, par), func(t *testing.T) {
				res := runPipeline(t, scalarFactory(agg.Func{Op: agg.Count}, window.Tumbling(100), 10), n, batch, par)
				var total float64
				perWindow := map[int64]float64{}
				for _, r := range res {
					total += r.Scalar
					perWindow[r.Start] += r.Scalar
				}
				if total != n {
					t.Fatalf("lost tuples: total %v, want %d", total, n)
				}
				if len(perWindow) != n/100 {
					t.Fatalf("%d windows, want %d", len(perWindow), n/100)
				}
				for start, sum := range perWindow {
					if sum != 100 {
						t.Errorf("window %d sum %v, want 100 (tuple crossed a watermark flush)", start, sum)
					}
				}
			})
		}
	}
}

// TestBatchSizesIdenticalResults demands bit-identical window results
// across batch sizes: same values, same N, same accelerate/exact Mode,
// same estimated errors. Routing, sampling, and flush ordering are all
// deterministic, so any divergence is a batching bug. The baselines are
// held to it as well as SPEAr, in the time and the count domain: every
// manager takes the runs the engine hands it, and a batch size of one
// is the per-tuple reference.
func TestBatchSizesIdenticalResults(t *testing.T) {
	leakcheck.Check(t)
	sliding := window.Spec{Domain: window.TimeDomain, Range: 300, Slide: 100}
	countSliding := window.Spec{Domain: window.CountDomain, Range: 90, Slide: 30}
	baseline := func(f agg.Func, spec window.Spec, mk func(core.Config) (core.Manager, error)) ManagerFactory {
		return func(wi int) (core.Manager, error) {
			return mk(core.Config{
				Spec: spec, Agg: f, Value: tuple.FieldFloat(0),
				Epsilon: 0.10, Confidence: 0.95, BudgetTuples: 10,
				Store: storage.NewMemStore(), Key: fmt.Sprintf("w%d", wi), Seed: int64(wi) + 1,
			})
		}
	}
	exact := func(cfg core.Config) (core.Manager, error) { return core.NewExactManager(cfg) }
	incremental := func(cfg core.Config) (core.Manager, error) { return core.NewIncrementalManager(cfg) }
	for _, c := range []struct {
		name string
		mk   ManagerFactory
	}{
		{"spear-sum/tumbling", scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)},
		{"exact-median/sliding", baseline(agg.Median(), sliding, exact)},
		{"exact-median/count-sliding", baseline(agg.Median(), countSliding, exact)},
		{"incremental-mean/sliding", baseline(agg.Func{Op: agg.Mean}, sliding, incremental)},
		{"incremental-mean/count-sliding", baseline(agg.Func{Op: agg.Mean}, countSliding, incremental)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := runPipeline(t, c.mk, 3000, 1, 2)
			if len(ref) == 0 {
				t.Fatal("no window fired")
			}
			for _, batch := range []int{2, 64, 4096} {
				got := runPipeline(t, c.mk, 3000, batch, 2)
				if len(got) != len(ref) {
					t.Fatalf("batch %d: %d results, want %d", batch, len(got), len(ref))
				}
				for i := range ref {
					a, b := ref[i], got[i]
					if a.Start != b.Start || a.End != b.End || a.N != b.N ||
						math.Float64bits(a.Scalar) != math.Float64bits(b.Scalar) || a.Mode != b.Mode || a.EstError != b.EstError {
						t.Errorf("batch %d result %d diverged:\n batch 1 %+v\n batched %+v", batch, i, a, b)
					}
				}
			}
		})
	}
}

// countingManager wraps a Manager, counting the tuples of the runs it
// ingests.
type countingManager struct {
	inner core.Manager
	seen  int64
}

func (c *countingManager) OnTupleBatch(ts []tuple.Tuple) ([]core.Result, error) {
	c.seen += int64(len(ts))
	return c.inner.OnTupleBatch(ts)
}
func (c *countingManager) OnWatermark(wm int64) ([]core.Result, error) {
	return c.inner.OnWatermark(wm)
}

// TestBarrierFlushCoversExactPrefix injects a checkpoint barrier at a
// fixed spout offset and asserts the snapshot point observes exactly
// the first barrierAt source tuples: the barrier broadcast must flush
// every run pending ahead of itself or the count would fall short, and
// nothing read after the trigger may reach the worker before the
// barrier, or it would overshoot. Runs with no chain, a chain, and a
// chain with the inert Config.Columnar set (each chain dropping every
// eighth tuple, so the prefix is counted in survivors), at several batch
// sizes including one larger than the barrier offset.
func TestBarrierFlushCoversExactPrefix(t *testing.T) {
	leakcheck.Check(t)
	const n, barrierAt = 2000, 500
	keep := func(t tuple.Tuple) (tuple.Tuple, bool) { return t, t.Ts%8 != 0 }
	survivors := func(upTo int) int64 { return int64(upTo - (upTo+7)/8) }
	for _, c := range []struct {
		name           string
		chain, columns bool
	}{{"no chain", false, false}, {"row chain", true, false}, {"columnar chain", true, true}} {
		for _, batch := range []int{1, 2, 64, 4096} {
			t.Run(fmt.Sprintf("%s/batch%d", c.name, batch), func(t *testing.T) {
				var in []tuple.Tuple
				for i := 0; i < n; i++ {
					in = append(in, tuple.New(int64(i), tuple.Float(1)))
				}
				cm := &countingManager{}
				factory := func(wi int) (core.Manager, error) {
					inner, err := scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)(wi)
					if err != nil {
						return nil, err
					}
					cm.inner = inner
					return cm, nil
				}
				var atSnapshot int64 = -1
				fired := false
				hooks := &CheckpointHooks{
					Trigger: func(offset int64) (uint64, bool, error) {
						if !fired && offset >= barrierAt {
							fired = true
							return 1, true, nil
						}
						return 0, false, nil
					},
					Snapshot: func(id uint64, worker int, mgr core.Manager) error {
						atSnapshot = cm.seen
						return nil
					},
				}
				sink := &collectSink{}
				tp := NewTopology(Config{WatermarkPeriod: 100, BatchSize: batch, Checkpoint: hooks, Columnar: c.columns}).
					SetSpout(NewSliceSpout(in))
				wantAt, wantAll := int64(barrierAt), int64(n)
				if c.chain {
					tp.AddMap("keep", 0, keep)
					wantAt, wantAll = survivors(barrierAt), survivors(n)
				}
				tp.SetWindowed("sum", 1, nil, factory).SetSink(sink.sink)
				if err := tp.Run(); err != nil {
					t.Fatal(err)
				}
				if !fired {
					t.Fatal("barrier never injected")
				}
				if atSnapshot != wantAt {
					t.Errorf("snapshot saw %d tuples, want exactly %d", atSnapshot, wantAt)
				}
				if cm.seen != wantAll {
					t.Errorf("manager saw %d tuples total, want %d", cm.seen, wantAll)
				}
			})
		}
	}
}

// TestBarrierRegressionFailsRun pins the one protocol check a
// single-sender worker keeps: barrier ids arrive strictly increasing. A
// repeated or older id means the channel was corrupted; the worker
// fails the run, takes no snapshot for it, and keeps draining.
func TestBarrierRegressionFailsRun(t *testing.T) {
	leakcheck.Check(t)
	for _, second := range []uint64{2, 1} {
		t.Run(fmt.Sprintf("2 then %d", second), func(t *testing.T) {
			var snaps []uint64
			var failed errOnce
			in := make(chan Batch, 4)
			results := make(chan []SinkItem, 4)
			mgr, err := scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)(0)
			if err != nil {
				t.Fatal(err)
			}
			in <- Batch{Ctl: Barrier, Barrier: 2}
			in <- Batch{Ctl: Barrier, Barrier: second}
			in <- Batch{Rows: []tuple.Tuple{tuple.New(1, tuple.Float(1))}}
			close(in)
			runWinWorker(winWorkerCfg{
				name: "w", batchSize: 8, mgr: mgr, in: in, results: results,
				pool: newRunPool(8), failed: &failed,
				hooks: &CheckpointHooks{Snapshot: func(id uint64, _ int, _ core.Manager) error {
					snaps = append(snaps, id)
					return nil
				}},
			})
			if err := failed.get(); err == nil || !strings.Contains(err.Error(), "after barrier 2") {
				t.Fatalf("run error = %v, want a barrier regression", err)
			}
			if len(snaps) != 1 || snaps[0] != 2 {
				t.Fatalf("snapshots taken for %v, want [2]", snaps)
			}
		})
	}
}

// slowManager wraps a Manager and stalls once every so many tuples,
// forcing the bounded queues upstream to fill.
type slowManager struct {
	inner core.Manager
	every int
	seen  int
}

func (s *slowManager) OnTupleBatch(ts []tuple.Tuple) ([]core.Result, error) {
	before := s.seen
	s.seen += len(ts)
	for range s.seen/s.every - before/s.every {
		time.Sleep(200 * time.Microsecond)
	}
	return s.inner.OnTupleBatch(ts)
}
func (s *slowManager) OnWatermark(wm int64) ([]core.Result, error) {
	return s.inner.OnWatermark(wm)
}

// TestBackpressureSlowWindowedWorkerBatched: a queue of one batch and a
// deliberately slow windowed worker force every upstream sender to
// block on flush; the pipeline must neither deadlock nor lose tuples.
func TestBackpressureSlowWindowedWorkerBatched(t *testing.T) {
	leakcheck.Check(t)
	const n = 3000
	var in []tuple.Tuple
	for i := 0; i < n; i++ {
		in = append(in, tuple.New(int64(i%100), tuple.Float(1)))
	}
	sink := &collectSink{}
	inner := scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)
	factory := func(wi int) (core.Manager, error) {
		m, err := inner(wi)
		if err != nil {
			return nil, err
		}
		return &slowManager{inner: m, every: 100}, nil
	}
	tp := NewTopology(Config{BatchSize: 8, WatermarkPeriod: 100})
	tp.queue = 1
	tp.SetSpout(NewSliceSpout(in)).
		AddMap("id", 0, func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true }).
		SetWindowed("sum", 2, nil, factory).
		SetSink(sink.sink)
	done := make(chan error, 1)
	go func() { done <- tp.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline deadlocked under back-pressure")
	}
	var total float64
	for _, r := range sink.res {
		total += r.Scalar
	}
	if total != n {
		t.Errorf("sum across workers = %v, want %d", total, n)
	}
}

// ---- batch occupancy ------------------------------------------------------

// TestBatchOccupancyCountsTuples pins what the occupancy histogram
// records: the tuples a data batch carries. On a steady stream at
// BatchSize 64 every run is full, so the mean is 64 with or without a
// chain (and the inert Config.Columnar); controls are not batches of
// anything.
func TestBatchOccupancyCountsTuples(t *testing.T) {
	leakcheck.Check(t)
	const n = 64 * 200
	in := make([]tuple.Tuple, n)
	for i := range in {
		in[i] = tuple.New(int64(i), tuple.Float(1))
	}
	for _, cols := range []bool{false, true} {
		t.Run(fmt.Sprintf("cols=%v", cols), func(t *testing.T) {
			ins := obs.NewInstruments()
			tp := NewTopology(Config{WatermarkPeriod: 64 * 50, BatchSize: 64, Columnar: cols, Obs: ins}).
				SetSpout(NewSliceSpout(in))
			if cols {
				tp.AddMap("id", 0, func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true })
			}
			tp.SetWindowed("sum", 1, nil, scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(64*50), 10)).
				SetSink(func(int, core.Result) {})
			if err := tp.Run(); err != nil {
				t.Fatal(err)
			}
			occ := ins.Snapshot(time.Now()).Occupancy
			if occ.Sum != n || occ.Count != n/64 {
				t.Fatalf("occupancy: %d tuples over %d batches, want %d over %d", occ.Sum, occ.Count, n, n/64)
			}
		})
	}
}

// ---- the hop itself -------------------------------------------------------

// nopManager takes runs and does nothing with them, so a benchmark over
// it times the engine's hops alone.
type nopManager struct{}

func (nopManager) OnTupleBatch([]tuple.Tuple) ([]core.Result, error) { return nil, nil }
func (nopManager) OnWatermark(int64) ([]core.Result, error)          { return nil, nil }

// hopCase is one topology from the source to nopManager.
type hopCase struct {
	name     string
	par      int
	keyed    bool
	stages   int
	columnar bool
}

var hopCases = []hopCase{
	{"par1_shuffle", 1, false, 0, false},
	{"par2_keyed", 2, true, 0, false},
	{"one_map_stage", 1, false, 1, false},
	{"three_stages_columnar", 1, false, 3, true},
}

// hopChunk is the tuples one hop topology carries.
const hopChunk = 1 << 18

// hopInput returns hopChunk two-field tuples, 64 distinct keys.
func hopInput() []tuple.Tuple {
	in := make([]tuple.Tuple, hopChunk)
	vals := make([]tuple.Value, 2*hopChunk)
	for i := range in {
		vals[2*i], vals[2*i+1] = tuple.Float(float64(i&255)), tuple.String_(fmt.Sprintf("k%d", i&63))
		in[i] = tuple.Tuple{Ts: int64(i), Vals: vals[2*i : 2*i+2 : 2*i+2]}
	}
	return in
}

// runHop runs c's topology over in to completion.
func runHop(tb testing.TB, c hopCase, in []tuple.Tuple) {
	id := func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true }
	tp := NewTopology(Config{WatermarkPeriod: 1000, Columnar: c.columnar}).SetSpout(NewSliceSpout(in))
	for i := 0; i < c.stages; i++ {
		tp.AddMap("id", 0, id)
	}
	var keyBy tuple.KeyExtractor
	if c.keyed {
		keyBy = tuple.FieldString(1)
	}
	tp.SetWindowed("nop", c.par, keyBy, func(int) (core.Manager, error) { return nopManager{}, nil }).
		SetSink(func(int, core.Result) {})
	if err := tp.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkHop times what a tuple costs between the source and a
// manager that ignores it: one op is one tuple, so ns/op is ns/tuple
// and allocs/op the steady state's (a run's set-up is spread over the
// 256K tuples it carries; the only pool on the path is the run pool).
func BenchmarkHop(b *testing.B) {
	in := hopInput()
	for _, c := range hopCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for left := b.N; left > 0; left -= hopChunk {
				runHop(b, c, in[:min(left, hopChunk)])
			}
		})
	}
}

// TestHopAllocsPerTuple is BenchmarkHop's allocs/op as a gate: a whole
// Topology.Run of hopChunk tuples, set-up included, allocates at most
// 0.05 times per tuple on every plan (up to ≈ 0.008), so a per-tuple
// allocation on the spout, the batcher, a hop or the chain (one map
// made per tuple reads 2.0) fails here. Runs come from the run pool,
// and how many a run finds there depends on how far the spout got
// ahead of the worker. So the gate takes the best of three runs, after
// one that fills the pool, with collections off (one would empty it)
// unless the heap nears 256 MiB.
func TestHopAllocsPerTuple(t *testing.T) {
	in := hopInput()
	for _, c := range hopCases {
		t.Run(c.name, func(t *testing.T) {
			const limit = 0.05
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
			runHop(t, c, in)
			best := math.Inf(1)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				runHop(t, c, in)
				runtime.ReadMemStats(&after)
				best = min(best, float64(after.Mallocs-before.Mallocs)/float64(len(in)))
			}
			t.Logf("%.4f allocs/tuple", best)
			if best > limit {
				t.Errorf("%.4f allocations per tuple, want at most %g", best, limit)
			}
		})
	}
}

// ---- a shard's one ingest lane -------------------------------------------

// rowManager counts the tuples its runs carry.
type rowManager struct {
	nopManager
	rows int
}

func (m *rowManager) OnTupleBatch(rs []tuple.Tuple) ([]core.Result, error) {
	m.rows += len(rs)
	return nil, nil
}

// columnManager is a rowManager that also has an OnColumnBatch, as
// core.ScalarManager does.
type columnManager struct{ rowManager }

func (m *columnManager) OnColumnBatch(*col.ColumnBatch) ([]core.Result, error) {
	panic("a worker called OnColumnBatch")
}

// TestShardColumnarLane pins that a shard's worker has one way into its
// manager: the rows a frame decodes to go to OnTupleBatch, whether or
// not the manager also has an OnColumnBatch — what a local worker of the
// same run does.
func TestShardColumnarLane(t *testing.T) {
	leakcheck.Check(t)
	for _, columnar := range []bool{false, true} {
		t.Run(fmt.Sprintf("columnar=%v", columnar), func(t *testing.T) {
			rm := &rowManager{}
			var mgr core.Manager = rm
			if columnar {
				cm := &columnManager{}
				mgr, rm = cm, &cm.rowManager
			}
			sr, err := StartShard(Shard{
				Name: "lane", Lo: 2, Hi: 3,
				Factory: func(int) (core.Manager, error) { return mgr, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			run, _ := sr.NewRun()
			run = append(run, tuple.New(1, tuple.Float(1)), tuple.New(2, tuple.Float(2)))
			sr.In[0] <- Batch{Rows: run}
			close(sr.In[0])
			for range sr.Results {
			}
			if err := sr.Wait(); err != nil {
				t.Fatal(err)
			}
			if rm.rows != 2 {
				t.Fatalf("ingested %d tuples by rows, want 2", rm.rows)
			}
		})
	}
}

// rowFreeManager is a nopManager that says whether it keeps rows.
type rowFreeManager struct {
	nopManager
	keeps bool
}

func (m rowFreeManager) KeepsRows() bool { return m.keeps }

// TestShardRecyclesSlabsOnlyWhereNoRowIsKept: a worker gives a decoded
// run's value slab back to the shard's pool, where the decoder's next
// NewRun hands it out again, only when its manager says it keeps no
// row; a manager that keeps rows, or does not say, keeps the slab.
func TestShardRecyclesSlabsOnlyWhereNoRowIsKept(t *testing.T) {
	leakcheck.Check(t)
	for _, c := range []struct {
		name string
		mgr  core.Manager
		back bool
	}{
		{"keeps no row", rowFreeManager{keeps: false}, true},
		{"keeps rows", rowFreeManager{keeps: true}, false},
		{"does not say", nopManager{}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sr, err := StartShard(Shard{
				Name: "slab", Lo: 0, Hi: 1,
				Factory: func(int) (core.Manager, error) { return c.mgr, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			sent := map[*tuple.Value]bool{}
			for i := 0; i < 32; i++ {
				slab := make([]tuple.Value, 1)
				sent[&slab[0]] = true
				sr.In[0] <- Batch{Rows: []tuple.Tuple{{Ts: int64(i), Vals: slab[:1:1]}}, Slab: slab}
			}
			close(sr.In[0])
			for range sr.Results {
			}
			if err := sr.Wait(); err != nil {
				t.Fatal(err)
			}
			back := 0
			for {
				_, slab := sr.NewRun()
				if slab == nil {
					break
				}
				if !sent[&slab[:1][0]] {
					t.Fatal("the pool handed out a slab no worker gave back")
				}
				back++
			}
			// The race detector's pool drops a put now and then: one slab
			// of 32 coming back is enough.
			if (back > 0) != c.back {
				t.Fatalf("%d of 32 slabs came back to the pool", back)
			}
		})
	}
}
