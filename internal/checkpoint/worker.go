package checkpoint

import (
	"fmt"
	"time"

	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/spe"
	"spear/internal/storage"
)

// This file is the worker side of checkpointing, one protocol wherever
// a windowed worker runs. When a barrier arrives the worker serializes
// and persists its own blob with SnapshotBlob, then confirms the
// returned manifest entry: to the coordinator directly in its own
// process, or over the wire from a shard node, which shares the spill
// store with the coordinator's process (a FileStore on a shared
// directory) so the blob bytes never cross the connection. On restart
// each worker restores itself from the manifest the source recovered
// to with RestoreWorker.

// WorkerHooks returns the worker-side hooks of the checkpoint protocol.
// Restore restores a worker from the manifest restore, or on a clean
// start (restore nil) only rewinds its store, and books RecoveryTime.
// Snapshot persists the worker's blob under namespace ns, books
// SnapshotTime and SnapshotBytes, and hands the blob's manifest entry
// and the deletions deferred up to the barrier to confirm. StartOffset
// is the manifest's offset; Trigger is the coordinator's to add.
func WorkerHooks(store storage.SpillStore, ns string, restore *Manifest, met *obs.CheckpointMetrics,
	confirm func(id uint64, op Operator, deferred []string) error) *spe.CheckpointHooks {
	h := &spe.CheckpointHooks{
		Restore: func(worker int, mgr core.Manager) error {
			start := time.Now()
			var err error
			if restore != nil {
				err = RestoreWorker(store, *restore, worker, mgr)
			} else {
				err = Rewind(mgr, worker)
			}
			met.RecoveryTime.Set(met.RecoveryTime.Load() + int64(time.Since(start)))
			return err
		},
		Snapshot: func(id uint64, worker int, mgr core.Manager) error {
			start := time.Now()
			op, deferred, err := SnapshotBlob(store, ns, id, worker, mgr)
			if err != nil {
				met.Failed.Add(1)
				return err
			}
			met.SnapshotTime.ObserveDuration(time.Since(start))
			met.SnapshotBytes.Add(op.Size)
			return confirm(id, op, deferred)
		},
	}
	if restore != nil {
		h.StartOffset = restore.Offset
	}
	return h
}

// SnapshotBlob serializes mgr's state, persists it under the
// checkpoint's blob key, and returns the manifest entry to confirm to
// the coordinator plus the store deletions deferred up to this
// snapshot point (the coordinator executes them at commit).
func SnapshotBlob(store storage.SpillStore, ns string, id uint64, worker int, mgr core.Manager) (Operator, []string, error) {
	s, ok := mgr.(Snapshotter)
	if !ok {
		return Operator{}, nil, fmt.Errorf("checkpoint: worker %d manager %T cannot snapshot", worker, mgr)
	}
	blob, err := s.SnapshotState()
	if err != nil {
		return Operator{}, nil, fmt.Errorf("checkpoint: snapshot worker %d: %w", worker, err)
	}
	key := snapshotKey(ns, id, worker)
	if err := putBlob(store, key, blob); err != nil {
		return Operator{}, nil, err
	}
	var deferred []string
	if dd, ok := mgr.(DeferredDeleter); ok {
		deferred = dd.TakeDeferredDeletes()
	}
	return Operator{Worker: worker, Key: key, Size: int64(len(blob)), Sum: BlobSum(blob)}, deferred, nil
}

// LoadManifest reads and decodes checkpoint id's manifest from the
// shared store.
func LoadManifest(store storage.SpillStore, ns string, id uint64) (Manifest, error) {
	enc, err := getBlob(store, manifestKey(ns, id))
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: load manifest %d: %w", id, err)
	}
	m, err := DecodeManifest(enc)
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: manifest %d: %w", id, err)
	}
	if m.ID != id {
		return Manifest{}, fmt.Errorf("checkpoint: manifest key %d holds id %d", id, m.ID)
	}
	return m, nil
}

// RestoreWorker restores one operator from manifest m: fetch the
// worker's blob, validate size and checksum against the manifest
// entry, restore the manager, and rewind secondary storage to the
// snapshot point.
func RestoreWorker(store storage.SpillStore, m Manifest, worker int, mgr core.Manager) error {
	var op *Operator
	for i := range m.Operators {
		if m.Operators[i].Worker == worker {
			op = &m.Operators[i]
			break
		}
	}
	if op == nil {
		return fmt.Errorf("checkpoint: manifest %d has no snapshot for worker %d", m.ID, worker)
	}
	s, ok := mgr.(Snapshotter)
	if !ok {
		return fmt.Errorf("checkpoint: worker %d manager %T cannot restore", worker, mgr)
	}
	b, err := getBlob(store, op.Key)
	if err != nil {
		return fmt.Errorf("checkpoint: load blob for worker %d: %w", worker, err)
	}
	if int64(len(b)) != op.Size || BlobSum(b) != op.Sum {
		return fmt.Errorf("checkpoint: blob for worker %d fails validation", worker)
	}
	if err := s.RestoreState(b); err != nil {
		return fmt.Errorf("checkpoint: restore worker %d: %w", worker, err)
	}
	return Rewind(mgr, worker)
}

// Rewind reconciles secondary storage with mgr's current (restored
// or clean) state, dropping whatever a crashed run wrote after the
// snapshot point. Safe on managers without store-backed state.
func Rewind(mgr core.Manager, worker int) error {
	if rw, ok := mgr.(StoreRewinder); ok {
		if err := rw.RewindStore(); err != nil {
			return fmt.Errorf("checkpoint: rewind worker %d: %w", worker, err)
		}
	}
	return nil
}
