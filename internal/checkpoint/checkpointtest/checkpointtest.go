// Package checkpointtest injects crashes into the checkpoint protocol
// so recovery tests can exercise every dangerous interleaving without
// killing the process: the run aborts through the engine's normal error
// path (wrapping ErrInjectedCrash), the store survives in whatever
// state the "crash" left it, and a fresh coordinator recovers from it.
package checkpointtest

import (
	"errors"
	"fmt"
	"sync/atomic"

	"spear/internal/core"
	"spear/internal/spe"
)

// ErrInjectedCrash is the sentinel every injected crash wraps; tests
// assert errors.Is against it to distinguish injected crashes from real
// failures.
var ErrInjectedCrash = errors.New("checkpointtest: injected crash")

// CrashPoint selects where in the protocol the crash fires.
type CrashPoint int

// The protocol's dangerous interleavings.
const (
	// None disables injection.
	None CrashPoint = iota
	// PreBarrier crashes the spout the moment the coordinator decides
	// to start checkpoint AtCheckpoint, before any barrier is emitted:
	// no worker ever sees the barrier, nothing of the round persists.
	PreBarrier
	// MidAlignment crashes worker AtWorker when the barrier of
	// checkpoint AtCheckpoint arrives — after the barrier, before the
	// snapshot, so no snapshot of the round is taken at that worker
	// while others may have taken theirs.
	MidAlignment
	// PostSnapshot crashes after worker AtWorker's snapshot blob for
	// checkpoint AtCheckpoint is durably stored but before it is
	// confirmed: the blob exists, the manifest never will.
	PostSnapshot
)

// String names the crash point.
func (p CrashPoint) String() string {
	switch p {
	case PreBarrier:
		return "pre-barrier"
	case MidAlignment:
		return "mid-alignment"
	case PostSnapshot:
		return "post-snapshot"
	default:
		return "none"
	}
}

// Injector arms one crash. The zero value injects nothing.
type Injector struct {
	// Point is where to crash.
	Point CrashPoint
	// AtCheckpoint is the checkpoint id to crash at (ids start at 1).
	AtCheckpoint uint64
	// AtWorker is the windowed worker to crash at (MidAlignment and
	// PostSnapshot).
	AtWorker int

	fired atomic.Bool
}

// Fired reports whether the crash has been injected.
func (in *Injector) Fired() bool { return in.fired.Load() }

func (in *Injector) crash() error {
	in.fired.Store(true)
	return fmt.Errorf("%w: %s at checkpoint %d", ErrInjectedCrash, in.Point, in.AtCheckpoint)
}

// AfterPersist returns the coordinator hook for PostSnapshot crashes;
// wire it into checkpoint.Config.AfterPersist. Nil-safe for other
// points (returns a pass-through).
func (in *Injector) AfterPersist() func(id uint64, worker int) error {
	return func(id uint64, worker int) error {
		if in.Point == PostSnapshot && id == in.AtCheckpoint && worker == in.AtWorker && !in.fired.Load() {
			return in.crash()
		}
		return nil
	}
}

// Arm wraps the coordinator's engine hooks with the injector's crash
// points (PreBarrier via Trigger, MidAlignment via Snapshot, crashing
// before the inner snapshot runs) and returns the wrapped hooks.
// PostSnapshot is wired separately through AfterPersist, which must be
// installed on the coordinator's Config before constructing it.
func (in *Injector) Arm(h *spe.CheckpointHooks) *spe.CheckpointHooks {
	wrapped := *h
	if inner := h.Trigger; inner != nil && in.Point == PreBarrier {
		wrapped.Trigger = func(offset int64) (uint64, bool, error) {
			id, ok, err := inner(offset)
			if err != nil {
				return id, ok, err
			}
			if ok && id == in.AtCheckpoint && !in.fired.Load() {
				return 0, false, in.crash()
			}
			return id, ok, nil
		}
	}
	if inner := h.Snapshot; inner != nil && in.Point == MidAlignment {
		wrapped.Snapshot = func(id uint64, worker int, mgr core.Manager) error {
			if id == in.AtCheckpoint && worker == in.AtWorker && !in.fired.Load() {
				return in.crash()
			}
			return inner(id, worker, mgr)
		}
	}
	return &wrapped
}
