package checkpoint_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/checkpoint/checkpointtest"
	"spear/internal/core"
	"spear/internal/sample"
	"spear/internal/spe"
	"spear/internal/spill"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// These tests pin the async spill plane's crash story: with write-behind
// spilling, prefetch and the chunk cache all enabled, a crash at every
// checkpoint-protocol seam followed by recovery must reproduce EXACTLY the results
// of an uninterrupted synchronous-spill run — values, window extents,
// and accelerate/exact Mode decisions.
//
// Crash model: the run aborts through the engine's error path and the
// plane is then drained (Close), i.e. every write the engine had issued
// before dying reaches S. That is the adversarial direction for
// recovery — the store holds MORE than the last committed snapshot
// promised, and RewindStore must truncate the extra chunks away. The
// opposite direction (issued writes lost) cannot happen by
// construction: SnapshotState barriers on the plane, so a manifest
// never commits while its spills are in flight (plane unit tests pin
// the barrier itself).

// asyncTopo runs the scalar topology with the manager stores routed
// through an async spill plane over inner, while the checkpoint
// coordinator keeps the RAW store (manifest commit must stay
// synchronous), mirroring the public Run() wiring.
func runAsyncSpill(ts []tuple.Tuple, planeStore storage.SpillStore, ahead int, hooks *spe.CheckpointHooks) (runOutput, error) {
	got := runOutput{}
	factory := func(wi int) (core.Manager, error) {
		return core.NewScalarManager(core.Config{
			Spec:               window.Tumbling(time.Duration(winTicks)),
			Value:              tuple.FieldFloat(0),
			Agg:                agg.Func{Op: agg.Mean},
			Epsilon:            0.05,
			Confidence:         0.95,
			BudgetTuples:       64,
			Store:              planeStore,
			Key:                fmt.Sprintf("q/w%d", wi),
			Seed:               sample.DeriveSeed(7, int64(wi)),
			ArchiveChunk:       16,
			DisableIncremental: true,
			DeferStoreDeletes:  true,
			SpillAhead:         ahead,
		})
	}
	tp := spe.NewTopology(spe.Config{
		WatermarkPeriod: winTicks,
		Checkpoint:      paced(hooks),
		FieldsSeed:      99,
	}).SetSpout(spe.NewSliceSpout(ts))
	tp.SetWindowed("win", 2, nil, factory)
	tp.SetSink(func(w int, r core.Result) { got[resKey{w, r.WindowID}] = r })
	err := tp.Run()
	return got, err
}

func TestCrashRecoveryAsyncSpill(t *testing.T) {
	ts := testStream(streamN)

	// Uninterrupted synchronous reference: raw MemStore, no plane, no
	// prefetch, no checkpointing.
	ref, err := runAsyncSpill(ts, storage.NewMemStore(), 0, nil)
	if err != nil {
		t.Fatalf("sync reference run: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no results")
	}

	// wrap builds the store under the plane. "slow" keeps spills in
	// flight when the crash fires (the write-behind queue is non-empty
	// mid-protocol).
	wraps := map[string]func(raw storage.SpillStore) storage.SpillStore{
		"mem": func(raw storage.SpillStore) storage.SpillStore { return raw },
		"slow": func(raw storage.SpillStore) storage.SpillStore {
			return storage.NewLatencyStore(raw, 200*time.Microsecond, nil)
		},
	}
	points := []checkpointtest.CrashPoint{
		checkpointtest.PreBarrier, checkpointtest.MidAlignment, checkpointtest.PostSnapshot,
	}
	for wname, wrap := range wraps {
		for _, point := range points {
			wname, wrap, point := wname, wrap, point
			t.Run(fmt.Sprintf("%s/%s", wname, point), func(t *testing.T) {
				raw := storage.NewMemStore()
				plane := spill.NewPlane(wrap(raw), spill.Options{Workers: 4, QueueBytes: 16 << 10})

				inj := &checkpointtest.Injector{Point: point, AtCheckpoint: crashAtCkpt, AtWorker: 0}
				coord := coordFor(t, raw, 2, inj.AfterPersist())
				partial, err := runAsyncSpill(ts, plane, 2, inj.Arm(coord.Hooks()))
				if !errors.Is(err, checkpointtest.ErrInjectedCrash) {
					t.Fatalf("crashed run: err = %v, want injected crash", err)
				}
				if !inj.Fired() {
					t.Fatal("crash point never armed")
				}
				// "The process dies": every issued write drains into S,
				// leaving chunks the committed snapshot never promised.
				if err := plane.Close(); err != nil {
					t.Fatalf("draining crashed plane: %v", err)
				}

				// Recovery in a fresh "process": new plane, fresh
				// coordinator over the surviving raw store.
				plane2 := spill.NewPlane(wrap(raw), spill.Options{Workers: 4, QueueBytes: 16 << 10})
				coord2 := coordFor(t, raw, 2, nil)
				found, err := coord2.Recover()
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if !found {
					t.Fatal("no checkpoint recovered (checkpoint 1 committed before the crash)")
				}
				resumed, err := runAsyncSpill(ts, plane2, 2, coord2.Hooks())
				if err != nil {
					t.Fatalf("recovery run: %v", err)
				}
				if err := plane2.Close(); err != nil {
					t.Fatalf("closing recovery plane: %v", err)
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
				diffOutputs(t, ref, merged, "async-spill merged vs sync ref")
			})
		}
	}
}

// TestRecoveryAsyncSpillIdentityNoCrash is the plain equivalence leg:
// the async plane (prefetch on) over an uninterrupted run
// must emit exactly what the synchronous plane emits, checkpointing
// enabled in both.
func TestRecoveryAsyncSpillIdentityNoCrash(t *testing.T) {
	ts := testStream(streamN)

	syncStore := storage.NewMemStore()
	coordSync := coordFor(t, syncStore, 2, nil)
	want, err := runAsyncSpill(ts, syncStore, 0, coordSync.Hooks())
	if err != nil {
		t.Fatalf("sync run: %v", err)
	}

	raw := storage.NewMemStore()
	plane := spill.NewPlane(raw, spill.Options{Workers: 4})
	coord := coordFor(t, raw, 2, nil)
	got, err := runAsyncSpill(ts, plane, 2, coord.Hooks())
	if err != nil {
		t.Fatalf("async run: %v", err)
	}
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	diffOutputs(t, want, got, "async vs sync, no crash")
}
