// Package checkpoint implements barrier snapshots and crash recovery
// for the SPEAr runtime. A coordinator, polled synchronously by the
// spout, decides when a checkpoint starts; the engine broadcasts a
// barrier to every windowed worker, each of which has the spout as its
// one sender; when the barrier arrives the worker serializes its
// operator's state (via the Snapshotter contract every stateful manager
// implements), persists it through the spill store and confirms
// (WorkerHooks); when every worker has confirmed, a manifest — spout
// offset plus per-blob checksums — is committed, superseded checkpoints
// are garbage collected, and store deletions deferred since the
// previous checkpoint are executed. Recovery loads the newest checkpoint whose manifest and
// blobs all validate, restores every operator, rewinds secondary
// storage to the snapshot point, and replays the spout from the
// recorded offset.
//
// Everything runs inside existing engine goroutines: Trigger on the
// spout's, Snapshot on the windowed workers'. The coordinator spawns
// none of its own.
package checkpoint

import (
	"cmp"
	"fmt"
	"sort"
	"sync"
	"time"

	"spear/internal/obs"
	"spear/internal/spe"
	"spear/internal/storage"
)

// Snapshotter is the contract a stateful operator implements to be
// checkpointable: serialize every field that influences future output
// into a self-describing blob, and restore exactly from one. Identical
// state must yield identical bytes (manifests checksum blobs).
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// StoreRewinder is implemented by operators that keep state in the
// spill store: RewindStore reconciles the store with the operator's
// restored in-memory state, truncating or deleting whatever a crashed
// run wrote after the snapshot point.
type StoreRewinder interface {
	RewindStore() error
}

// DeferredDeleter is implemented by operators that defer store
// deletions while checkpointing (so a rewind never needs a segment that
// is already gone). TakeDeferredDeletes returns and clears the keys
// whose deletion was requested; the coordinator executes them once the
// next checkpoint commits.
type DeferredDeleter interface {
	TakeDeferredDeletes() []string
}

// Config configures a Coordinator.
type Config struct {
	// Store persists snapshots and manifests (alongside the archive's
	// panes, under Namespace).
	Store storage.SpillStore
	// Namespace prefixes every checkpoint key; runs sharing a store
	// must use distinct namespaces.
	Namespace string
	// Workers is the windowed-stage parallelism; a checkpoint commits
	// when all Workers snapshots confirm.
	Workers int
	// EveryTuples triggers a checkpoint each time the spout offset
	// reaches a multiple of it (deterministic; used by tests). Zero
	// disables count-based triggering.
	EveryTuples int64
	// Interval triggers a checkpoint when this much wall-clock time has
	// passed since the last one. The clock is consulted only every 1024
	// tuples to keep the per-tuple cost negligible. Zero disables
	// time-based triggering.
	Interval time.Duration
	// Metrics receives checkpoint telemetry; nil selects a fresh bundle
	// of the coordinator's own.
	Metrics *obs.CheckpointMetrics
	// Now supplies the clock of interval triggers and manifest
	// timestamps; nil uses time.Now.
	Now func() time.Time
	// AfterPersist, when non-nil, runs after a worker's snapshot blob
	// is durably stored and before it is confirmed to the coordinator.
	// An error aborts the run — fault-injection tests use it as the
	// "crash post-snapshot, pre-confirm" point.
	AfterPersist func(id uint64, worker int) error
}

// round tracks one in-flight checkpoint.
type round struct {
	id       uint64
	offset   int64
	acked    []bool
	ackedN   int
	ops      []Operator
	deferred []string
	bytes    int64
}

// Coordinator drives the checkpoint protocol for one topology.
type Coordinator struct {
	cfg Config
	now func() time.Time

	mu         sync.Mutex
	nextID     uint64
	lastWall   time.Time
	lastOffset int64
	pending    *round

	restored *Manifest
}

// NewCoordinator validates cfg and returns a coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("checkpoint: no store")
	}
	if cfg.Namespace == "" {
		return nil, fmt.Errorf("checkpoint: empty namespace")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("checkpoint: %d workers", cfg.Workers)
	}
	if cfg.EveryTuples < 0 || cfg.Interval < 0 {
		return nil, fmt.Errorf("checkpoint: negative trigger period")
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	cfg.Metrics = cmp.Or(cfg.Metrics, &obs.CheckpointMetrics{})
	return &Coordinator{cfg: cfg, now: now, nextID: 1}, nil
}

// Recover scans the store for the newest complete checkpoint — a
// manifest that decodes and whose blobs are all present with matching
// checksums — and loads it. Incomplete or corrupt checkpoints (a crash
// mid-commit, a torn write) are skipped in favor of older ones. It
// returns false when no usable checkpoint exists, in which case the run
// starts clean (and Restore still rewinds stale store segments a
// crashed run may have left).
func (c *Coordinator) Recover() (bool, error) {
	keys, err := c.cfg.Store.List(manifestPrefix(c.cfg.Namespace))
	if err != nil {
		return false, fmt.Errorf("checkpoint: list manifests: %w", err)
	}
	// New checkpoint ids must exceed every id on disk — including
	// broken manifests a crash left — so a later commit never collides
	// with stale on-disk state it did not write.
	c.mu.Lock()
	for _, k := range keys {
		if id, ok := manifestID(c.cfg.Namespace, k); ok && id >= c.nextID {
			c.nextID = id + 1
		}
	}
	c.mu.Unlock()
	for i := len(keys) - 1; i >= 0; i-- {
		id, ok := manifestID(c.cfg.Namespace, keys[i])
		if !ok {
			continue
		}
		enc, err := getBlob(c.cfg.Store, keys[i])
		if err != nil {
			continue
		}
		m, err := DecodeManifest(enc)
		if err != nil || m.ID != id {
			continue
		}
		if len(m.Operators) != c.cfg.Workers {
			return false, fmt.Errorf("checkpoint: manifest %d has %d operators, topology has %d workers",
				id, len(m.Operators), c.cfg.Workers)
		}
		valid := true
		for _, op := range m.Operators {
			b, err := getBlob(c.cfg.Store, op.Key)
			if err != nil || int64(len(b)) != op.Size || BlobSum(b) != op.Sum {
				valid = false
				break
			}
		}
		if !valid {
			continue
		}
		c.restored = &m
		c.mu.Lock()
		if id >= c.nextID {
			c.nextID = id + 1
		}
		// The replay starts at m.Offset; the next checkpoint is owed a
		// full cadence after that, not immediately on resume.
		c.lastOffset = m.Offset
		c.mu.Unlock()
		return true, nil
	}
	return false, nil
}

// Restored returns the manifest recovery loaded, if any.
func (c *Coordinator) Restored() (Manifest, bool) {
	if c.restored == nil {
		return Manifest{}, false
	}
	return *c.restored, true
}

// Hooks returns the engine hooks wiring this coordinator into a
// topology: the worker protocol every windowed worker runs
// (WorkerHooks), confirming in this process, plus the spout's Trigger.
// Call after Recover when resuming.
func (c *Coordinator) Hooks() *spe.CheckpointHooks {
	h := WorkerHooks(c.cfg.Store, c.cfg.Namespace, c.restored, c.cfg.Metrics, c.confirmLocal)
	if c.cfg.EveryTuples > 0 || c.cfg.Interval > 0 {
		h.Trigger = c.trigger
	}
	return h
}

// trigger implements spe.CheckpointHooks.Trigger. One checkpoint is in
// flight at a time; while one is pending the trigger stays quiet.
func (c *Coordinator) trigger(offset int64) (uint64, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending != nil {
		return 0, false, nil
	}
	// Distance, not modulo: a round pending at the exact multiple must
	// not silence checkpointing forever — the next poll after commit
	// fires as soon as the cadence is owed.
	fire := c.cfg.EveryTuples > 0 && offset-c.lastOffset >= c.cfg.EveryTuples
	if !fire && c.cfg.Interval > 0 && offset&1023 == 0 {
		now := c.now()
		if c.lastWall.IsZero() {
			c.lastWall = now
		} else if now.Sub(c.lastWall) >= c.cfg.Interval {
			fire = true
		}
	}
	if !fire {
		return 0, false, nil
	}
	id := c.nextID
	c.nextID++
	c.pending = &round{id: id, offset: offset, acked: make([]bool, c.cfg.Workers)}
	c.lastWall = c.now()
	c.lastOffset = offset
	return id, true, nil
}

// confirmLocal confirms a worker of this process's own run, with
// AfterPersist between its durable blob and the confirmation.
func (c *Coordinator) confirmLocal(id uint64, op Operator, deferred []string) error {
	if c.cfg.AfterPersist != nil {
		if err := c.cfg.AfterPersist(id, op.Worker); err != nil {
			return c.fail(err)
		}
	}
	return c.Confirm(id, op, deferred)
}

// Confirm records that worker op.Worker's snapshot blob for checkpoint
// id is durably stored; the last confirmation commits the manifest.
// A worker of this process confirms through the hooks' Snapshot; the
// distributed runtime calls it when a remote worker's acknowledgment
// frame arrives. Either way the worker persisted the blob itself.
func (c *Coordinator) Confirm(id uint64, op Operator, deferred []string) error {
	worker := op.Worker
	c.mu.Lock()
	r := c.pending
	if r == nil || r.id != id {
		c.mu.Unlock()
		return c.fail(fmt.Errorf("checkpoint: stray snapshot for checkpoint %d from worker %d", id, worker))
	}
	if worker < 0 || worker >= len(r.acked) || r.acked[worker] {
		c.mu.Unlock()
		return c.fail(fmt.Errorf("checkpoint: duplicate snapshot from worker %d for checkpoint %d", worker, id))
	}
	r.acked[worker] = true
	r.ackedN++
	r.ops = append(r.ops, op)
	r.deferred = append(r.deferred, deferred...)
	r.bytes += op.Size
	done := r.ackedN == len(r.acked)
	if done {
		c.pending = nil
	}
	c.mu.Unlock()
	if done {
		if err := c.commit(r); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

// commit writes the manifest (the atomic commit point), executes
// deferred deletions, and garbage-collects superseded checkpoints.
func (c *Coordinator) commit(r *round) error {
	sort.Slice(r.ops, func(i, j int) bool { return r.ops[i].Worker < r.ops[j].Worker })
	m := Manifest{ID: r.id, Created: c.now().UnixNano(), Offset: r.offset, Operators: r.ops}
	enc := EncodeManifest(m)
	if err := putBlob(c.cfg.Store, manifestKey(c.cfg.Namespace, r.id), enc); err != nil {
		return err
	}
	c.cfg.Metrics.Completed.Add(1)
	c.cfg.Metrics.SnapshotBytes.Add(int64(len(enc)))
	c.cfg.Metrics.LastBytes.Set(r.bytes + int64(len(enc)))
	for _, k := range r.deferred {
		if err := c.cfg.Store.Delete(k); err != nil {
			return fmt.Errorf("checkpoint: deferred delete %q: %w", k, err)
		}
	}
	return c.gc(r.id)
}

// gc removes every checkpoint older than keep: manifests first (so an
// interrupted GC leaves at worst a blob-less older checkpoint, which
// recovery validates and skips), then snapshot blobs — including
// orphans from rounds that never committed.
func (c *Coordinator) gc(keep uint64) error {
	ns := c.cfg.Namespace
	mkeys, err := c.cfg.Store.List(manifestPrefix(ns))
	if err != nil {
		return err
	}
	for _, k := range mkeys {
		if id, ok := manifestID(ns, k); ok && id < keep {
			if err := c.cfg.Store.Delete(k); err != nil {
				return err
			}
		}
	}
	skeys, err := c.cfg.Store.List(ns + "/s/")
	if err != nil {
		return err
	}
	for _, k := range skeys {
		if id, ok := snapshotID(ns, k); ok && id < keep {
			if err := c.cfg.Store.Delete(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// fail records a checkpoint failure and returns err.
func (c *Coordinator) fail(err error) error {
	c.cfg.Metrics.Failed.Add(1)
	return err
}
