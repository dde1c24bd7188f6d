package checkpoint

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/storage"
	"spear/internal/tuple"
)

// stubManager is a minimal checkpointable core.Manager: its "state" is
// one byte slice, and it records rewinds and hands out deferred deletes.
type stubManager struct {
	state    []byte
	rewound  int
	deferred []string
	failSnap error
}

func (s *stubManager) OnTuple(tuple.Tuple) ([]core.Result, error) { return nil, nil }
func (s *stubManager) OnWatermark(int64) ([]core.Result, error)   { return nil, nil }

func (s *stubManager) SnapshotState() ([]byte, error) {
	if s.failSnap != nil {
		return nil, s.failSnap
	}
	return append([]byte(nil), s.state...), nil
}

func (s *stubManager) RestoreState(b []byte) error {
	s.state = append([]byte(nil), b...)
	return nil
}

func (s *stubManager) RewindStore() error { s.rewound++; return nil }

func (s *stubManager) TakeDeferredDeletes() []string {
	d := s.deferred
	s.deferred = nil
	return d
}

func newTestCoordinator(t *testing.T, store storage.SpillStore, workers int, every int64) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(Config{
		Store: store, Namespace: "t/ckpt", Workers: workers, EveryTuples: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runCheckpoint drives one full round through the coordinator.
func runCheckpoint(t *testing.T, c *Coordinator, offset int64, mgrs ...*stubManager) uint64 {
	t.Helper()
	id, ok, err := c.trigger(offset)
	if err != nil || !ok {
		t.Fatalf("trigger(%d) = %v, %v", offset, ok, err)
	}
	for wi, m := range mgrs {
		if err := c.Hooks().Snapshot(id, wi, m); err != nil {
			t.Fatalf("snapshot worker %d: %v", wi, err)
		}
	}
	return id
}

func TestCoordinatorTriggerCadence(t *testing.T) {
	store := storage.NewMemStore()
	c := newTestCoordinator(t, store, 1, 10)
	mgr := &stubManager{state: []byte("s")}
	var fired []int64
	for off := int64(0); off <= 35; off++ {
		id, ok, err := c.trigger(off)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fired = append(fired, off)
			if err := c.Hooks().Snapshot(id, 0, mgr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := fmt.Sprint(fired), "[10 20 30]"; got != want {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

func TestCoordinatorPendingBlocksTrigger(t *testing.T) {
	store := storage.NewMemStore()
	c := newTestCoordinator(t, store, 2, 10)
	id, ok, err := c.trigger(10)
	if err != nil || !ok {
		t.Fatal("first trigger did not fire")
	}
	if _, ok, _ := c.trigger(20); ok {
		t.Fatal("trigger fired while a round was pending")
	}
	mgr := &stubManager{}
	if err := c.Hooks().Snapshot(id, 0, mgr); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.trigger(20); ok {
		t.Fatal("trigger fired with one of two workers confirmed")
	}
	if err := c.Hooks().Snapshot(id, 1, mgr); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.trigger(30); !ok {
		t.Fatal("trigger quiet after the round committed")
	}
}

func TestCoordinatorIntervalTrigger(t *testing.T) {
	store := storage.NewMemStore()
	now := time.Unix(0, 0)
	c, err := NewCoordinator(Config{
		Store: store, Namespace: "t/ckpt", Workers: 1,
		Interval: time.Second,
		Now:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The clock is consulted only at multiples of 1024.
	if _, ok, _ := c.trigger(0); ok {
		t.Fatal("fired on the very first poll")
	}
	now = now.Add(2 * time.Second)
	if _, ok, _ := c.trigger(1025); ok {
		t.Fatal("fired between clock-check offsets")
	}
	if _, ok, _ := c.trigger(2048); !ok {
		t.Fatal("did not fire after the interval elapsed")
	}
}

func TestCoordinatorCommitRecoverGC(t *testing.T) {
	store := storage.NewMemStore()
	c := newTestCoordinator(t, store, 2, 10)
	m0 := &stubManager{state: []byte("alpha"), deferred: []string{"dead/seg"}}
	m1 := &stubManager{state: []byte("beta")}
	if err := store.Store("dead/seg", []tuple.Tuple{tuple.New(1)}); err != nil {
		t.Fatal(err)
	}

	id1 := runCheckpoint(t, c, 10, m0, m1)
	// The deferred delete must have executed at commit.
	if _, err := store.Get("dead/seg"); err == nil {
		t.Fatal("deferred delete not executed at commit")
	}

	m0.state = []byte("alpha2")
	id2 := runCheckpoint(t, c, 20, m0, m1)
	if id2 <= id1 {
		t.Fatalf("ids not increasing: %d then %d", id1, id2)
	}

	// GC: only checkpoint id2 remains in the store.
	mkeys, err := store.List(manifestPrefix("t/ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mkeys) != 1 || !strings.HasSuffix(mkeys[0], fmt.Sprintf("%016x", id2)) {
		t.Fatalf("manifests after GC: %v", mkeys)
	}
	skeys, err := store.List("t/ckpt/s/")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range skeys {
		if id, ok := snapshotID("t/ckpt", k); !ok || id != id2 {
			t.Fatalf("stale snapshot blob survived GC: %q", k)
		}
	}

	// Recovery loads checkpoint id2 and restores both workers.
	c2 := newTestCoordinator(t, store, 2, 10)
	found, err := c2.Recover()
	if err != nil || !found {
		t.Fatalf("Recover = %v, %v", found, err)
	}
	m, ok := c2.Restored()
	if !ok || m.ID != id2 || m.Offset != 20 {
		t.Fatalf("restored manifest %+v", m)
	}
	h := c2.Hooks()
	if h.StartOffset != 20 {
		t.Fatalf("StartOffset = %d, want 20", h.StartOffset)
	}
	r0, r1 := &stubManager{}, &stubManager{}
	if err := h.Restore(0, r0); err != nil {
		t.Fatal(err)
	}
	if err := h.Restore(1, r1); err != nil {
		t.Fatal(err)
	}
	if string(r0.state) != "alpha2" || string(r1.state) != "beta" {
		t.Fatalf("restored states %q, %q", r0.state, r1.state)
	}
	if r0.rewound != 1 || r1.rewound != 1 {
		t.Fatal("RewindStore not invoked during restore")
	}
}

func TestCoordinatorRecoverSkipsCorrupt(t *testing.T) {
	store := storage.NewMemStore()
	c := newTestCoordinator(t, store, 1, 10)
	mgr := &stubManager{state: []byte("good")}
	id1 := runCheckpoint(t, c, 10, mgr)

	// Hand-craft a newer but broken checkpoint: manifest present, blob
	// missing (a crash between blob GC... cannot happen in the real
	// protocol, but recovery must tolerate arbitrary store damage).
	bad := Manifest{ID: id1 + 1, Created: 1, Offset: 999, Operators: []Operator{
		{Worker: 0, Key: "t/ckpt/s/gone", Size: 4, Sum: 1},
	}}
	if err := putBlob(store, manifestKey("t/ckpt", id1+1), EncodeManifest(bad)); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCoordinator(t, store, 1, 10)
	found, err := c2.Recover()
	if err != nil || !found {
		t.Fatalf("Recover = %v, %v", found, err)
	}
	if m, _ := c2.Restored(); m.ID != id1 {
		t.Fatalf("recovered id %d, want %d (the older complete one)", m.ID, id1)
	}

	// A fresh id after recovery must supersede the broken manifest too.
	// (Offset 20: a full cadence past the recovered offset 10.)
	if id, ok, _ := c2.trigger(20); !ok || id <= id1+1 {
		t.Fatalf("post-recovery id %d must exceed every on-disk id", id)
	}
}

func TestCoordinatorRecoverEmptyAndMismatch(t *testing.T) {
	store := storage.NewMemStore()
	c := newTestCoordinator(t, store, 1, 10)
	if found, err := c.Recover(); err != nil || found {
		t.Fatalf("Recover on empty store = %v, %v", found, err)
	}
	// Clean-start hooks still rewind stale segments.
	h := c.Hooks()
	if h.StartOffset != 0 {
		t.Fatal("clean start has nonzero offset")
	}
	m := &stubManager{}
	if err := h.Restore(0, m); err != nil || m.rewound != 1 {
		t.Fatalf("clean-start restore: rewound=%d err=%v", m.rewound, err)
	}

	runCheckpoint(t, c, 10, &stubManager{state: []byte("x")})
	c2 := newTestCoordinator(t, store, 3, 10) // parallelism changed
	if _, err := c2.Recover(); err == nil {
		t.Fatal("recovery with mismatched worker count accepted")
	}
}

func TestCoordinatorSnapshotErrors(t *testing.T) {
	store := storage.NewMemStore()
	c := newTestCoordinator(t, store, 1, 10)
	id, ok, _ := c.trigger(10)
	if !ok {
		t.Fatal("no trigger")
	}
	boom := errors.New("boom")
	if err := c.Hooks().Snapshot(id, 0, &stubManager{failSnap: boom}); !errors.Is(err, boom) {
		t.Fatalf("snapshot error not propagated: %v", err)
	}
	// Stray and duplicate confirmations are protocol violations.
	c2 := newTestCoordinator(t, store, 2, 10)
	if err := c2.Hooks().Snapshot(99, 0, &stubManager{}); err == nil {
		t.Fatal("stray snapshot accepted")
	}
	id2, _, _ := c2.trigger(10)
	if err := c2.Hooks().Snapshot(id2, 0, &stubManager{}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Hooks().Snapshot(id2, 0, &stubManager{}); err == nil {
		t.Fatal("duplicate snapshot accepted")
	}
}

func TestCoordinatorMetrics(t *testing.T) {
	var cm obs.CheckpointMetrics
	store := storage.NewMemStore()
	c, err := NewCoordinator(Config{
		Store: store, Namespace: "t/ckpt", Workers: 1, EveryTuples: 10, Metrics: &cm,
	})
	if err != nil {
		t.Fatal(err)
	}
	runCheckpoint(t, c, 10, &stubManager{state: []byte("abcd")})
	if cm.Completed.Load() != 1 {
		t.Fatalf("Completed = %d", cm.Completed.Load())
	}
	if cm.SnapshotBytes.Load() == 0 || cm.LastBytes.Load() == 0 {
		t.Fatal("snapshot byte accounting missing")
	}
	if cm.SnapshotTime.Count() != 1 {
		t.Fatalf("SnapshotTime observations = %d", cm.SnapshotTime.Count())
	}
}
