// Package spill is the asynchronous spill I/O plane between the SPEAr
// managers and secondary storage S. The paper's resource model archives
// every tuple to S and reads windows back for exact fallbacks; with a
// remote S both directions carry a round-trip, and doing them inline
// stalls the engine exactly where the evaluation puts the cost. The
// plane hides that latency behind compute:
//
//   - write-behind spilling: Store enqueues a copied chunk on a per-key
//     FIFO serviced by a small worker pool, with back-pressure once the
//     in-flight byte budget is exceeded;
//   - watermark-driven read-ahead: Prefetch warms chunks for windows
//     about to fire, so the fire path hits memory instead of S;
//   - a size-bounded LRU chunk cache (copy-on-get) kept coherent with
//     queued writes by appending each chunk to its cached segment on the
//     worker, after the write lands, in per-key queue order.
//
// Ordering and durability invariants:
//
//   - Per-key order: all operations for one key execute in enqueue
//     order on at most one worker at a time, so chunk append order — and
//     therefore Truncate's chunk-count semantics — match the synchronous
//     path exactly.
//   - Read-your-writes: Get enqueues a fetch behind the key's pending
//     writes and waits, so it observes every chunk stored before it.
//   - Barrier: Flush returns only after every queued operation has been
//     executed against the inner store. Checkpoint snapshots call it so
//     a manifest never commits while the spills it accounts for are
//     still in flight.
//   - Errors latch: the first inner-store failure is returned from every
//     subsequent call (and from Flush/Close), so a lost spill surfaces
//     before any result that could depend on it.
//
// A Plane with zero workers degenerates to a transparent synchronous
// passthrough (no goroutines, no cache, no copies) — the reference
// behavior the async path is tested against.
package spill

import (
	"sync"
	"sync/atomic"

	"spear/internal/storage"
	"spear/internal/tuple"
)

// Options configures a Plane.
type Options struct {
	// Workers is the size of the spill worker pool. Zero (or negative)
	// selects the synchronous passthrough mode.
	Workers int
	// QueueBytes bounds the bytes held by queued writes before Store
	// blocks (back-pressure). Zero selects 8 MiB.
	QueueBytes int64
}

const (
	defaultQueueBytes = 8 << 20
	// cacheBytes bounds the decoded-chunk LRU cache of an async plane.
	cacheBytes = 32 << 20
)

// task is one queued operation for a key: a chunk write (ts != nil) or
// a fetch (fetch true). Fetches with a done channel are waited on by
// Get; prefetch fetches complete in the background.
type task struct {
	ts       []tuple.Tuple // plane-owned copy of the chunk to write
	bytes    int64         // accounted against QueueBytes while queued or active
	fetch    bool
	prefetch bool
	done     chan struct{} // closed when the task completes (waited tasks only)
	res      []tuple.Tuple // fetch result, caller-owned
	err      error
}

// keyQueue is the FIFO of pending tasks for one key. Invariant: a queue
// is on Plane.ready if and only if it has tasks and no worker is
// processing it; it is in Plane.queues while it has tasks or is active.
type keyQueue struct {
	key    string
	tasks  []*task
	active bool
}

// Stats is a point-in-time snapshot of the plane's counters, served as
// is in the observability plane's JSON snapshot (hence the tags) and as
// the spear_spill_* families.
type Stats struct {
	Async             bool  `json:"async"`              // the worker pool is active
	QueueDepth        int64 `json:"queue_depth"`        // tasks queued or being processed
	InflightBytes     int64 `json:"inflight_bytes"`     // bytes held by queued/active writes
	AsyncWrites       int64 `json:"async_writes"`       // chunk writes serviced by the worker pool
	BackpressureWaits int64 `json:"backpressure_waits"` // Store calls that blocked on QueueBytes
	Flushes           int64 `json:"flushes"`            // Flush calls
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheEvictions    int64 `json:"cache_evictions"`
	CacheBytes        int64 `json:"cache_bytes"`     // current cache footprint
	PrefetchIssued    int64 `json:"prefetch_issued"` // background fetches enqueued by Prefetch
	PrefetchHits      int64 `json:"prefetch_hits"`   // Gets served from a prefetched cache entry
}

// Plane implements storage.SpillStore over an inner store, adding the
// asynchronous write-behind queue, the chunk cache, and prefetch. It is
// safe for concurrent use by multiple workers.
type Plane struct {
	inner   storage.SpillStore
	workers int
	maxQ    int64

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string]*keyQueue
	ready   []*keyQueue
	pending int   // queued + active tasks
	qBytes  int64 // bytes of queued + active writes
	closed  bool
	lastErr error

	cache *chunkCache // nil iff workers == 0
	wg    sync.WaitGroup

	asyncWrites    atomic.Int64
	bpWaits        atomic.Int64
	flushes        atomic.Int64
	prefetchIssued atomic.Int64
	prefetchHits   atomic.Int64
}

// NewPlane wraps inner. With opts.Workers <= 0 the plane is a
// synchronous passthrough; otherwise Close must be called to stop the
// worker pool and surface any latched error.
func NewPlane(inner storage.SpillStore, opts Options) *Plane {
	p := &Plane{inner: inner, workers: opts.Workers}
	if p.workers < 0 {
		p.workers = 0
	}
	if p.workers == 0 {
		return p
	}
	p.maxQ = opts.QueueBytes
	if p.maxQ == 0 {
		p.maxQ = defaultQueueBytes
	}
	p.cache = newChunkCache(cacheBytes)
	p.cond = sync.NewCond(&p.mu)
	p.queues = make(map[string]*keyQueue)
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// AsPlane returns s if it already is a Plane, otherwise a synchronous
// passthrough plane over s. The archive and window buffers route every
// store operation through a Plane so the hot path has exactly one spill
// seam, whether or not the async plane is enabled.
func AsPlane(s storage.SpillStore) *Plane {
	if p, ok := s.(*Plane); ok {
		return p
	}
	return NewPlane(s, Options{})
}

// Async reports whether the worker pool is active.
func (p *Plane) Async() bool { return p.workers > 0 }

// enqueue appends t to key's queue, marking the queue ready if idle.
// Caller must hold p.mu.
func (p *Plane) enqueue(key string, t *task) {
	q := p.queues[key]
	if q == nil {
		q = &keyQueue{key: key}
		p.queues[key] = q
	}
	q.tasks = append(q.tasks, t)
	p.pending++
	p.qBytes += t.bytes
	if !q.active && len(q.tasks) == 1 {
		p.ready = append(p.ready, q)
	}
	p.cond.Broadcast()
}

// worker services one task at a time, round-robin across ready keys so
// a deep queue on one key cannot starve the rest.
func (p *Plane) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.ready) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.ready) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		q := p.ready[0]
		p.ready = p.ready[1:]
		q.active = true
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		p.mu.Unlock()

		err := p.process(q.key, t)

		p.mu.Lock()
		q.active = false
		p.pending--
		p.qBytes -= t.bytes
		if err != nil && p.lastErr == nil {
			p.lastErr = err
		}
		if len(q.tasks) > 0 {
			p.ready = append(p.ready, q)
		} else {
			delete(p.queues, q.key)
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		if t.done != nil {
			close(t.done)
		}
	}
}

// process executes one task against the inner store and keeps the
// cache coherent. Per-key ordering is guaranteed by the caller: at most
// one worker processes tasks for a key, in enqueue order.
func (p *Plane) process(key string, t *task) error {
	if !t.fetch {
		if err := p.inner.Store(key, t.ts); err != nil {
			t.err = err
			return err
		}
		p.asyncWrites.Add(1)
		// Append after the write lands so a cached segment always
		// reflects a prefix of the store's durable chunks plus this one,
		// in store order. t.ts is plane-owned; the cache may alias it.
		p.cache.append(key, t.ts)
		return nil
	}
	// Fetch: every write enqueued before this task has been executed
	// and appended to the cache, so a cache hit is fully coherent.
	if ts, prefetched, ok := p.cache.get(key); ok {
		if prefetched && !t.prefetch {
			p.prefetchHits.Add(1)
		}
		t.res = ts
		return nil
	}
	ts, err := p.inner.Get(key)
	if err != nil {
		// A missing segment is not a plane failure: the archive asks
		// only for panes it stored, but a restore that skipped the rewind
		// can name one S lacks. Report it to the waiter, do not latch it.
		t.err = err
		return nil
	}
	p.cache.insert(key, ts, t.prefetch)
	// The cache owns ts now; hand the waiter its own copy.
	t.res = copyTuples(ts)
	return nil
}

// latched returns the first queue error, if any.
func (p *Plane) latched() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastErr
}

// Store implements storage.SpillStore. In async mode the chunk is
// deep-copied (honoring the interface's must-not-retain contract) and
// queued; the call blocks only when the in-flight byte budget is full.
func (p *Plane) Store(key string, ts []tuple.Tuple) error {
	if p.workers == 0 {
		return p.inner.Store(key, ts)
	}
	cp := copyTuples(ts)
	var bytes int64
	for i := range cp {
		bytes += int64(cp[i].MemSize())
	}
	p.mu.Lock()
	if p.lastErr != nil {
		err := p.lastErr
		p.mu.Unlock()
		return err
	}
	if p.closed {
		p.mu.Unlock()
		return p.inner.Store(key, ts)
	}
	waited := false
	for p.qBytes+bytes > p.maxQ && p.qBytes > 0 && p.lastErr == nil && !p.closed {
		waited = true
		p.cond.Wait()
	}
	if waited {
		p.bpWaits.Add(1)
	}
	if p.lastErr != nil {
		err := p.lastErr
		p.mu.Unlock()
		return err
	}
	p.enqueue(key, &task{ts: cp, bytes: bytes})
	p.mu.Unlock()
	return nil
}

// Get implements storage.SpillStore: it queues a fetch behind the
// key's pending writes and waits, so it observes exactly the chunks
// stored before it — from the cache when a prefetch or earlier read
// warmed it, from the inner store otherwise.
func (p *Plane) Get(key string) ([]tuple.Tuple, error) {
	if p.workers == 0 {
		return p.inner.Get(key)
	}
	if err := p.latched(); err != nil {
		return nil, err
	}
	t := &task{fetch: true, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return p.inner.Get(key)
	}
	p.enqueue(key, t)
	p.mu.Unlock()
	<-t.done
	return t.res, t.err
}

// Prefetch asynchronously warms the cache for keys (watermark-driven
// read-ahead). Keys already cached are skipped. No-op in passthrough
// mode.
func (p *Plane) Prefetch(keys ...string) {
	if p.workers == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.lastErr != nil {
		return
	}
	for _, key := range keys {
		if p.cache.has(key) {
			continue
		}
		if q := p.queues[key]; q != nil {
			// A fetch already queued for this key will warm the cache.
			skip := false
			for _, qt := range q.tasks {
				if qt.fetch {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
		}
		p.enqueue(key, &task{fetch: true, prefetch: true})
		p.prefetchIssued.Add(1)
	}
}

// waitKey blocks until no task for key is queued or active.
func (p *Plane) waitKey(key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.queues[key] != nil {
		p.cond.Wait()
	}
	return p.lastErr
}

// Flush is the durability barrier: it returns once every operation
// enqueued before the call has been executed against the inner store
// (any error latched by then is returned). Checkpoint snapshots call it
// so manifest commit implies spill durability.
func (p *Plane) Flush() error {
	if p.workers == 0 {
		return nil
	}
	p.flushes.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	return p.lastErr
}

// Delete implements storage.SpillStore: pending operations for the key
// drain first, the cached segment is dropped, then the delete passes
// through synchronously.
func (p *Plane) Delete(key string) error {
	if p.workers == 0 {
		return p.inner.Delete(key)
	}
	if err := p.waitKey(key); err != nil {
		return err
	}
	p.cache.invalidate(key)
	return p.inner.Delete(key)
}

// Truncate implements storage.SpillStore. The cached segment is
// invalidated rather than trimmed: truncation happens on recovery
// paths, never concurrently with readers that could exploit the cache.
func (p *Plane) Truncate(key string, chunks int) error {
	if p.workers == 0 {
		return p.inner.Truncate(key, chunks)
	}
	if err := p.waitKey(key); err != nil {
		return err
	}
	p.cache.invalidate(key)
	return p.inner.Truncate(key, chunks)
}

// List implements storage.SpillStore; it flushes first so segments
// created by queued writes are visible.
func (p *Plane) List(prefix string) ([]string, error) {
	if p.workers == 0 {
		return p.inner.List(prefix)
	}
	if err := p.Flush(); err != nil {
		return nil, err
	}
	return p.inner.List(prefix)
}

// Stats implements storage.SpillStore, reporting the inner store's
// counters.
func (p *Plane) Stats() storage.Stats { return p.inner.Stats() }

// PlaneStats snapshots the plane's own counters.
func (p *Plane) PlaneStats() Stats {
	s := Stats{
		Async:             p.workers > 0,
		AsyncWrites:       p.asyncWrites.Load(),
		BackpressureWaits: p.bpWaits.Load(),
		Flushes:           p.flushes.Load(),
		PrefetchIssued:    p.prefetchIssued.Load(),
		PrefetchHits:      p.prefetchHits.Load(),
	}
	if p.workers > 0 {
		p.mu.Lock()
		s.QueueDepth = int64(p.pending)
		s.InflightBytes = p.qBytes
		p.mu.Unlock()
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CacheBytes = p.cache.stats()
	}
	return s
}

// Close flushes, stops the worker pool, and returns the first latched
// error. After Close the plane degrades to synchronous passthrough, so
// late stragglers (e.g. deferred deletes) still work.
func (p *Plane) Close() error {
	if p.workers == 0 {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		err := p.lastErr
		p.mu.Unlock()
		return err
	}
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	return p.latched()
}

// copyTuples deep-copies ts: a fresh tuple slice plus one shared
// backing array for the values, so neither the caller mutating its
// slice nor the plane retaining its copy can corrupt the other (string
// payloads are immutable in Go, so sharing them is safe).
func copyTuples(ts []tuple.Tuple) []tuple.Tuple {
	if ts == nil {
		return nil
	}
	out := make([]tuple.Tuple, len(ts))
	n := 0
	for i := range ts {
		n += len(ts[i].Vals)
	}
	vals := make([]tuple.Value, 0, n)
	for i := range ts {
		out[i].Ts = ts[i].Ts
		if len(ts[i].Vals) == 0 {
			continue
		}
		vals = append(vals, ts[i].Vals...)
		out[i].Vals = vals[len(vals)-len(ts[i].Vals):]
	}
	return out
}
