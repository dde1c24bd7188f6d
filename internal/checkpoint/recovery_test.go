package checkpoint_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/checkpoint"
	"spear/internal/checkpoint/checkpointtest"
	"spear/internal/core"
	"spear/internal/sample"
	"spear/internal/spe"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// The end-to-end contract: crash anywhere in the checkpoint protocol,
// recover, and the union of pre-crash and post-recovery results —
// values AND accelerate/exact decisions — is identical to an
// uninterrupted run. The topologies here are deterministic by
// construction (ordered source, shuffle phase restored, seeded
// sampling, seeded fields routing), so identity can be asserted
// exactly.

const (
	streamN     = 2000
	winTicks    = 100 // tumbling window length in event-time ticks
	ckptEvery   = 451 // a multiple of no tested parallelism: recovery resumes mid round-robin
	crashAtCkpt = 2   // offset 902, mid-window 9
)

// testStream alternates low-variance windows (accelerated from the
// sample) with high-variance ones (processed exactly, fetched from
// secondary storage), so recovery is exercised on both paths.
func testStream(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := 0; i < n; i++ {
		var v float64
		if (i/winTicks)%2 == 1 {
			v = 100 + float64((i*7919)%1000) // wild: forces exact
		} else {
			v = 100 + float64(i%10)*0.01 // tame: accelerates
		}
		ts[i] = tuple.New(int64(i), tuple.Float(v), tuple.String_(fmt.Sprintf("g%d", i%8)))
	}
	return ts
}

type resKey struct {
	worker int
	id     window.ID
}

type runOutput map[resKey]core.Result

// topo describes one deterministic test topology. batch is the
// engine's micro-batch size (0 → engine default of 64; 1 → per-tuple
// transfer); filter puts a stateless stage that drops every eighth
// tuple ahead of the windowed one.
type topo struct {
	par     int
	grouped bool
	batch   int
	filter  bool
}

func (tc topo) factory(store storage.SpillStore) spe.ManagerFactory {
	return func(wi int) (core.Manager, error) {
		cfg := core.Config{
			Spec:               window.Tumbling(time.Duration(winTicks)),
			Value:              tuple.FieldFloat(0),
			Epsilon:            0.05,
			Confidence:         0.95,
			BudgetTuples:       64,
			Store:              store,
			Key:                fmt.Sprintf("q/w%d", wi),
			Seed:               sample.DeriveSeed(7, int64(wi)),
			ArchiveChunk:       16,
			DisableIncremental: true,
			DeferStoreDeletes:  true,
		}
		if tc.grouped {
			cfg.Agg = agg.Func{Op: agg.Mean}
			cfg.KeyBy = tuple.FieldString(1)
			return core.NewGroupedManager(cfg)
		}
		cfg.Agg = agg.Func{Op: agg.Mean}
		return core.NewScalarManager(cfg)
	}
}

func (tc topo) run(ts []tuple.Tuple, store storage.SpillStore, hooks *spe.CheckpointHooks) (runOutput, error) {
	got := runOutput{}
	var keyBy tuple.KeyExtractor
	if tc.grouped {
		keyBy = tuple.FieldString(1)
	}
	tp := spe.NewTopology(spe.Config{
		WatermarkPeriod: winTicks,
		Checkpoint:      paced(hooks),
		FieldsSeed:      99,
		BatchSize:       tc.batch,
	}).SetSpout(spe.NewSliceSpout(ts))
	if tc.filter {
		tp.AddMap("keep", 0, func(t tuple.Tuple) (tuple.Tuple, bool) { return t, t.Ts%8 != 3 })
	}
	tp.SetWindowed("win", tc.par, keyBy, tc.factory(store))
	tp.SetSink(func(w int, r core.Result) { got[resKey{w, r.WindowID}] = r })
	err := tp.Run()
	return got, err
}

// paced holds the spout at each multiple of ckptEvery past its start
// until the round before has committed, so that checkpoint k covers
// exactly the first k·ckptEvery tuples however far ahead of the workers
// a hop lets the spout run. A round commits inside the snapshot of its
// last worker, so the spout retries after each snapshot; a failed one
// ends the wait, as its round never commits, and so do ten seconds.
func paced(h *spe.CheckpointHooks) *spe.CheckpointHooks {
	if h == nil || h.Trigger == nil {
		return h
	}
	var failed atomic.Bool
	snapped := make(chan struct{}, 1) // one pending wake-up is enough
	wrapped := *h
	trigger, snapshot := h.Trigger, h.Snapshot
	wrapped.Snapshot = func(id uint64, worker int, mgr core.Manager) error {
		err := snapshot(id, worker, mgr)
		if err != nil {
			failed.Store(true)
		}
		select {
		case snapped <- struct{}{}:
		default:
		}
		return err
	}
	wrapped.Trigger = func(offset int64) (uint64, bool, error) {
		timeout := time.After(10 * time.Second)
		for {
			id, ok, err := trigger(offset)
			if ok || err != nil || offset <= h.StartOffset || offset%ckptEvery != 0 || failed.Load() {
				return id, ok, err
			}
			select {
			case <-snapped:
			case <-timeout:
				return id, ok, err
			}
		}
	}
	return &wrapped
}

func coordFor(t *testing.T, store storage.SpillStore, par int, after func(uint64, int) error) *checkpoint.Coordinator {
	t.Helper()
	c, err := checkpoint.NewCoordinator(checkpoint.Config{
		Store:        store,
		Namespace:    "q/ckpt",
		Workers:      par,
		EveryTuples:  ckptEvery,
		AfterPersist: after,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameResult compares everything the paper cares about: the value(s),
// the window extent and size, and — crucially — the accelerate/exact
// decision.
func sameResult(a, b core.Result) bool {
	return a.WindowID == b.WindowID && a.Start == b.Start && a.End == b.End &&
		a.N == b.N && a.SampleN == b.SampleN && a.Mode == b.Mode &&
		a.EstError == b.EstError && a.Scalar == b.Scalar &&
		reflect.DeepEqual(a.Groups, b.Groups)
}

func diffOutputs(t *testing.T, want, got runOutput, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d results, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing result worker=%d window=%d", label, k.worker, k.id)
			continue
		}
		if !sameResult(w, g) {
			t.Errorf("%s: worker=%d window=%d\n want %v\n  got %v", label, k.worker, k.id, w, g)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected result worker=%d window=%d", label, k.worker, k.id)
		}
	}
}

// crashAndRecover runs the full scenario for one crash point and
// topology: reference run, crashed run, recovery run, identity check.
func crashAndRecover(t *testing.T, tc topo, point checkpointtest.CrashPoint) {
	ts := testStream(streamN)

	// Uninterrupted reference (no checkpointing at all).
	ref, err := tc.run(ts, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no results")
	}

	// Crashed run.
	store := storage.NewMemStore()
	inj := &checkpointtest.Injector{Point: point, AtCheckpoint: crashAtCkpt, AtWorker: 0}
	coord := coordFor(t, store, tc.par, inj.AfterPersist())
	partial, err := tc.run(ts, store, inj.Arm(coord.Hooks()))
	if !errors.Is(err, checkpointtest.ErrInjectedCrash) {
		t.Fatalf("crashed run: err = %v, want injected crash", err)
	}
	if !inj.Fired() {
		t.Fatal("crash point never armed")
	}

	// Recovery: a fresh coordinator over the surviving store.
	coord2 := coordFor(t, store, tc.par, nil)
	found, err := coord2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !found {
		t.Fatal("no checkpoint recovered (checkpoint 1 committed before the crash)")
	}
	m, _ := coord2.Restored()
	if m.ID != crashAtCkpt-1 || m.Offset != ckptEvery*(crashAtCkpt-1) {
		t.Fatalf("recovered checkpoint %d at offset %d, want %d at %d",
			m.ID, m.Offset, crashAtCkpt-1, ckptEvery*(crashAtCkpt-1))
	}
	resumed, err := tc.run(ts, store, coord2.Hooks())
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}

	// Merge: windows the crashed run already emitted that the recovery
	// re-emits must agree exactly (at-least-once output, identical
	// content).
	merged := runOutput{}
	for k, v := range partial {
		merged[k] = v
	}
	for k, v := range resumed {
		if prev, dup := merged[k]; dup && !sameResult(prev, v) {
			t.Errorf("replayed window diverged: worker=%d window=%d\n crashed %v\n resumed %v",
				k.worker, k.id, prev, v)
		}
		merged[k] = v
	}
	diffOutputs(t, ref, merged, "merged")
}

func TestCrashRecoveryScalar(t *testing.T) {
	points := []checkpointtest.CrashPoint{
		checkpointtest.PreBarrier, checkpointtest.MidAlignment, checkpointtest.PostSnapshot,
	}
	for _, par := range []int{1, 2} {
		for _, p := range points {
			p := p
			t.Run(fmt.Sprintf("par%d/%s", par, p), func(t *testing.T) {
				crashAndRecover(t, topo{par: par}, p)
			})
		}
	}
}

// TestCrashRecoveryRoutingWithFilter is the case where recovery depends
// on routing being a function of the input alone: a shuffle-routed
// scalar query at par 3 with a filter in the chain. The replay from the
// checkpoint's offset must send source tuple k to the worker the
// crashed run sent it to — a survivor keeps the round-robin slot of the
// tuple it came from, and the slot's phase is the offset — or the
// restored per-worker state and the replayed suffix belong to different
// partitions of the stream and the per-worker union differs from the
// uninterrupted run's.
func TestCrashRecoveryRoutingWithFilter(t *testing.T) {
	for _, p := range []checkpointtest.CrashPoint{
		checkpointtest.PreBarrier, checkpointtest.MidAlignment, checkpointtest.PostSnapshot,
	} {
		t.Run(p.String(), func(t *testing.T) {
			crashAndRecover(t, topo{par: 3, filter: true}, p)
		})
	}
}

func TestCrashRecoveryGrouped(t *testing.T) {
	points := []checkpointtest.CrashPoint{
		checkpointtest.PreBarrier, checkpointtest.MidAlignment, checkpointtest.PostSnapshot,
	}
	for _, p := range points {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			crashAndRecover(t, topo{par: 2, grouped: true}, p)
		})
	}
}

// TestCrashRecoveryBatchedIdentity is the acceptance check for the
// batched dataflow: with micro-batching enabled (several batch sizes,
// including one larger than the whole stream), a crash mid-protocol
// followed by recovery must reproduce the SAME results — values AND
// accelerate/exact Mode decisions — as an uninterrupted run executed
// with per-tuple transfer (BatchSize 1). Batching is a transport
// optimization; it must be invisible to the paper's semantics.
func TestCrashRecoveryBatchedIdentity(t *testing.T) {
	ts := testStream(streamN)

	// Reference: uninterrupted, strictly per-tuple transfer.
	ref, err := topo{par: 2, batch: 1}.run(ts, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatalf("per-tuple reference run: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no results")
	}

	for _, batch := range []int{2, 64, streamN + 500} {
		for _, point := range []checkpointtest.CrashPoint{
			checkpointtest.MidAlignment, checkpointtest.PostSnapshot,
		} {
			batch, point := batch, point
			t.Run(fmt.Sprintf("batch%d/%s", batch, point), func(t *testing.T) {
				tc := topo{par: 2, batch: batch}

				store := storage.NewMemStore()
				inj := &checkpointtest.Injector{Point: point, AtCheckpoint: crashAtCkpt, AtWorker: 0}
				coord := coordFor(t, store, tc.par, inj.AfterPersist())
				partial, err := tc.run(ts, store, inj.Arm(coord.Hooks()))
				if !errors.Is(err, checkpointtest.ErrInjectedCrash) {
					t.Fatalf("crashed run: err = %v, want injected crash", err)
				}

				coord2 := coordFor(t, store, tc.par, nil)
				found, err := coord2.Recover()
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if !found {
					t.Fatal("no checkpoint recovered")
				}
				resumed, err := tc.run(ts, store, coord2.Hooks())
				if err != nil {
					t.Fatalf("recovery run: %v", err)
				}

				merged := runOutput{}
				for k, v := range partial {
					merged[k] = v
				}
				for k, v := range resumed {
					if prev, dup := merged[k]; dup && !sameResult(prev, v) {
						t.Errorf("replayed window diverged: worker=%d window=%d\n crashed %v\n resumed %v",
							k.worker, k.id, prev, v)
					}
					merged[k] = v
				}
				diffOutputs(t, ref, merged, "batched merged vs per-tuple ref")
			})
		}
	}
}

// TestCrashRecoveryFileStore proves durability across "process"
// boundaries: the crashed run and the recovery use distinct FileStore
// instances over the same directory, so recovery sees only what was
// durably on disk.
func TestCrashRecoveryFileStore(t *testing.T) {
	dir := t.TempDir()
	tc := topo{par: 1}
	ts := testStream(streamN)

	ref, err := tc.run(ts, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}

	store1, err := storage.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := &checkpointtest.Injector{Point: checkpointtest.PostSnapshot, AtCheckpoint: crashAtCkpt, AtWorker: 0}
	coord := coordFor(t, store1, 1, inj.AfterPersist())
	partial, err := tc.run(ts, store1, inj.Arm(coord.Hooks()))
	if !errors.Is(err, checkpointtest.ErrInjectedCrash) {
		t.Fatalf("crashed run: %v", err)
	}

	store2, err := storage.NewFileStore(dir) // a new "process"
	if err != nil {
		t.Fatal(err)
	}
	coord2 := coordFor(t, store2, 1, nil)
	if found, err := coord2.Recover(); err != nil || !found {
		t.Fatalf("Recover = %v, %v", found, err)
	}
	resumed, err := tc.run(ts, store2, coord2.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	merged := runOutput{}
	for k, v := range partial {
		merged[k] = v
	}
	for k, v := range resumed {
		merged[k] = v
	}
	diffOutputs(t, ref, merged, "filestore merged")
}

// TestRecoveryWithoutCheckpointStartsClean: a crash before any
// checkpoint commits must not poison the store — recovery discards the
// partial segments and the rerun matches the reference.
func TestRecoveryWithoutCheckpointStartsClean(t *testing.T) {
	tc := topo{par: 1}
	ts := testStream(streamN)
	ref, err := tc.run(ts, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}

	store := storage.NewMemStore()
	inj := &checkpointtest.Injector{Point: checkpointtest.PreBarrier, AtCheckpoint: 1}
	coord := coordFor(t, store, 1, inj.AfterPersist())
	if _, err := tc.run(ts, store, inj.Arm(coord.Hooks())); !errors.Is(err, checkpointtest.ErrInjectedCrash) {
		t.Fatalf("crashed run: %v", err)
	}

	coord2 := coordFor(t, store, 1, nil)
	found, err := coord2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("recovered a checkpoint that never committed")
	}
	rerun, err := tc.run(ts, store, coord2.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	diffOutputs(t, ref, rerun, "clean restart")
}
