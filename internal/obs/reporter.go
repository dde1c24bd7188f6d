package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultReportEvery is the Reporter's snapshot period when the caller
// does not choose one.
const DefaultReportEvery = 250 * time.Millisecond

// Reporter periodically folds every instrument into an immutable
// Snapshot and publishes it behind an atomic pointer. Readers (the HTTP
// server, tests, user callbacks) never block writers: they load the
// pointer and read a frozen value.
//
// The clock and ticker are injectable so tests drive time
// deterministically; production uses time.Now and time.Ticker.
type Reporter struct {
	ins   *Instruments
	every time.Duration
	clock func() time.Time
	// tick returns a channel firing roughly every `every`, plus a stop
	// function. Injected by tests; defaults to a time.Ticker.
	tick func(every time.Duration) (<-chan time.Time, func())
	// onSnapshot, when set, observes every published snapshot (called
	// from the reporter goroutine — keep it fast).
	onSnapshot func(*Snapshot)

	latest atomic.Pointer[Snapshot]

	mu      sync.Mutex
	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool

	// previous-tick baselines for delta computation.
	prevStorage *spillStats
	prevCkpt    *CheckpointSnapshot
}

// NewReporter returns a reporter over ins snapshotting every `every`
// (DefaultReportEvery when ≤ 0).
func NewReporter(ins *Instruments, every time.Duration) *Reporter {
	if every <= 0 {
		every = DefaultReportEvery
	}
	return &Reporter{
		ins:   ins,
		every: every,
		clock: time.Now,
		tick: func(every time.Duration) (<-chan time.Time, func()) {
			t := time.NewTicker(every)
			return t.C, t.Stop
		},
	}
}

// SetClock injects a deterministic clock (tests). Call before Start.
func (r *Reporter) SetClock(clock func() time.Time) { r.clock = clock }

// SetTicker injects a deterministic tick source (tests). Call before
// Start.
func (r *Reporter) SetTicker(tick func(time.Duration) (<-chan time.Time, func())) {
	r.tick = tick
}

// OnSnapshot registers a callback observing every published snapshot.
// Call before Start.
func (r *Reporter) OnSnapshot(fn func(*Snapshot)) { r.onSnapshot = fn }

// Latest returns the most recently published snapshot, or nil before
// the first tick.
func (r *Reporter) Latest() *Snapshot { return r.latest.Load() }

// Start launches the reporting goroutine. Starting a started reporter
// is a no-op.
func (r *Reporter) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return
	}
	r.started = true
	r.stopCh = make(chan struct{})
	r.doneCh = make(chan struct{})
	// Publish an initial snapshot immediately so Latest is non-nil as
	// soon as Start returns.
	r.publish()
	go func(stop, done chan struct{}) {
		defer close(done)
		tick, stopTick := r.tick(r.every)
		defer stopTick()
		for {
			select {
			case <-tick:
				r.publish()
			case <-stop:
				// One final snapshot so post-run state is observable.
				r.publish()
				return
			}
		}
	}(r.stopCh, r.doneCh)
}

// Stop halts the goroutine after it publishes one final snapshot.
// Stopping a stopped (or never-started) reporter is a no-op. Returns
// only after the goroutine has exited, so leak checks pass.
func (r *Reporter) Stop() {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return
	}
	r.started = false
	stop, done := r.stopCh, r.doneCh
	r.mu.Unlock()
	close(stop)
	<-done
}

// publish folds one snapshot, computes deltas against the previous
// tick, and swaps it in.
func (r *Reporter) publish() {
	s := r.ins.Snapshot(r.clock())
	if s.Storage != nil {
		if r.prevStorage != nil {
			d := diffStorage(*r.prevStorage, *s.Storage)
			s.StorageDelta = &d
		}
		prev := *s.Storage
		r.prevStorage = &prev
	}
	if s.Checkpoint != nil {
		if r.prevCkpt != nil {
			d := diffCheckpoint(*r.prevCkpt, *s.Checkpoint)
			s.CheckpointDelta = &d
		}
		prev := *s.Checkpoint
		r.prevCkpt = &prev
	}
	r.latest.Store(s)
	if r.onSnapshot != nil {
		r.onSnapshot(s)
	}
}

// diffStorage returns cur − prev, clamped at zero per field (a store
// reset between ticks must not produce negative rates).
func diffStorage(prev, cur spillStats) spillStats {
	return spillStats{
		Stores:        max(0, cur.Stores-prev.Stores),
		Gets:          max(0, cur.Gets-prev.Gets),
		Deletes:       max(0, cur.Deletes-prev.Deletes),
		BytesStored:   max(0, cur.BytesStored-prev.BytesStored),
		BytesFetched:  max(0, cur.BytesFetched-prev.BytesFetched),
		TuplesStored:  max(0, cur.TuplesStored-prev.TuplesStored),
		TuplesFetched: max(0, cur.TuplesFetched-prev.TuplesFetched),
	}
}

// diffCheckpoint returns cur − prev for the monotone counters; gauges
// (LastBytes, RecoveryNanos, SnapshotMeanNanos) carry the current
// value.
func diffCheckpoint(prev, cur CheckpointSnapshot) CheckpointSnapshot {
	return CheckpointSnapshot{
		Completed:         max(0, cur.Completed-prev.Completed),
		Failed:            max(0, cur.Failed-prev.Failed),
		SnapshotBytes:     max(0, cur.SnapshotBytes-prev.SnapshotBytes),
		LastBytes:         cur.LastBytes,
		RecoveryNanos:     cur.RecoveryNanos,
		SnapshotMeanNanos: cur.SnapshotMeanNanos,
	}
}
