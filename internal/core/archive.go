package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"spear/internal/spill"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// archive streams every arriving tuple to secondary storage S, honoring
// the model's invariant that "in any case, τ is stored in S as is common
// practice" (§3.1). Tuples are bucketed into panes — tumbling intervals
// of one window slide — so each tuple is written once even under sliding
// windows (the single-buffer spirit), and a window fetch reads exactly
// Range/Slide panes.
//
// Writes are batched in small chunks; the chunk buffer is transient
// working memory, not window state, and is bounded by the chunk size.
//
// A manager with no exact fallback to fetch holds no archive: what it
// calls on every path — evict, prefetch, memory, snapshot section,
// rewind, deferred deletes — takes nil as the archive that holds nothing.
type archive struct {
	// store is always a spill.Plane: every archive operation goes
	// through the async spill plane, which degenerates to a synchronous
	// passthrough when the plane is not enabled. No ingest path talks
	// to secondary storage directly: TestIngestDoesNotWaitForTheStore
	// stalls the store behind an async plane and requires ingest to
	// return.
	store *spill.Plane
	key   string
	spec  window.Spec
	chunk int

	pending map[int64][]tuple.Tuple // pane index → buffered tuples
	minPane int64                   // smallest pane that may still exist
	haveMin bool

	// cur caches the buffer of the pane tuples are arriving into, and
	// curKey its name once built, so the hot path neither walks the map
	// nor formats: tuples land in consecutive panes, so addRun is a
	// compare + append until the pane rolls over. Invariant: while curOK,
	// pending has no entry for curP; any walk of the map stash()es first.
	cur    []tuple.Tuple
	curP   int64
	curKey string
	curOK  bool

	// free holds the backing arrays of finished pane buffers, a stored
	// chunk's (SpillStore.Store encodes and must not retain the slice)
	// and an evicted, never-flushed pane's alike, for rollTo to start the
	// next pane in: the steady state allocates no buffer. Cleared when
	// parked; bounded by the panes live at once; not snapshotted.
	free [][]tuple.Tuple

	// Checkpoint bookkeeping. flushed counts the chunks stored per live
	// pane so recovery can Truncate away chunks a crashed run appended
	// after the snapshot. deferDel switches evictBefore from deleting
	// panes to recording them; the checkpoint coordinator deletes them
	// once the checkpoint that no longer references them is durable
	// (deleting eagerly would strand a restored snapshot that still
	// needs the pane for its exact fallback).
	flushed  map[int64]int
	deferDel bool
	deferred []string
}

func newArchive(store storage.SpillStore, key string, spec window.Spec, chunk int, deferDel bool) *archive {
	return &archive{
		store:    spill.AsPlane(store),
		key:      key,
		spec:     spec,
		chunk:    chunk,
		pending:  make(map[int64][]tuple.Tuple),
		flushed:  make(map[int64]int),
		deferDel: deferDel,
	}
}

func (a *archive) paneOf(pos int64) int64 {
	p := pos / a.spec.Slide
	if pos%a.spec.Slide != 0 && pos < 0 {
		p--
	}
	return p
}

func (a *archive) paneKey(p int64) string {
	return fmt.Sprintf("%s/p%d", a.key, p)
}

// flushCur stores the cached pane's full chunk, naming the pane once a roll.
func (a *archive) flushCur() error {
	if a.curKey == "" {
		a.curKey = a.paneKey(a.curP)
	}
	if err := a.store.Store(a.curKey, a.cur); err != nil {
		return fmt.Errorf("core: archive pane %d: %w", a.curP, err)
	}
	a.flushed[a.curP]++
	a.cur = a.cur[:0] // backing array recycled in place
	return nil
}

// release parks a finished pane buffer on the free list, cleared to its
// capacity (a chunk flushed in place leaves tuples beyond the length).
func (a *archive) release(buf []tuple.Tuple) {
	if cap(buf) > 0 {
		clear(buf[:cap(buf)])
		a.free = append(a.free, buf[:0])
	}
}

// addRun buffers a run of tuples that share pane p, flushing the pane's
// chunk each time it fills. This is the hot path of every manager ("τ is
// stored in S" runs for each arrival): one pane-index compare against
// the cached cur buffer — no map operations — and one bulk append a
// chunk, into a recycled backing array. A run of Spec.EachRun shares its
// newest window hi, and hi = ⌊pos/Slide⌋ is the pane. pos are the rows'
// positions; in the count domain that is what a pane stores as their Ts.
func (a *archive) addRun(p int64, pos []int64, rows []tuple.Tuple) error {
	if !a.curOK || p != a.curP {
		a.rollTo(p)
	}
	for len(rows) > 0 {
		at := len(a.cur)
		k := min(len(rows), max(a.chunk-at, 1))
		a.cur = append(a.cur, rows[:k]...)
		if a.spec.Domain == window.CountDomain {
			for i, q := range pos[:k] {
				a.cur[at+i].Ts = q
			}
		}
		rows, pos = rows[k:], pos[k:]
		if len(a.cur) >= a.chunk {
			if err := a.flushCur(); err != nil {
				return err
			}
		}
	}
	return nil
}

// rollTo retires the cached pane buffer into pending and loads (or
// starts) pane p's buffer into the cache.
func (a *archive) rollTo(p int64) {
	a.stash()
	if !a.haveMin || p < a.minPane {
		a.minPane = p
		a.haveMin = true
	}
	if buf, ok := a.pending[p]; ok {
		a.cur = buf
		delete(a.pending, p)
	} else if n := len(a.free); n > 0 { // stash left cur nil
		a.cur, a.free[n-1] = a.free[n-1], nil
		a.free = a.free[:n-1]
	}
	a.curKey, a.curP, a.curOK = "", p, true
}

// stash reinstates the cached pane buffer into the pending map. Every
// path that reads or mutates pending as a whole calls it first.
func (a *archive) stash() {
	if !a.curOK {
		return
	}
	if len(a.cur) > 0 {
		a.pending[a.curP] = a.cur
	} else {
		a.release(a.cur)
	}
	a.cur, a.curOK = nil, false
}

func (a *archive) flushPane(p int64) error {
	if a.curOK && p == a.curP {
		a.stash()
	}
	ts := a.pending[p]
	if len(ts) == 0 {
		return nil
	}
	if err := a.store.Store(a.paneKey(p), ts); err != nil {
		return fmt.Errorf("core: archive pane %d: %w", p, err)
	}
	a.flushed[p]++
	delete(a.pending, p)
	a.release(ts)
	return nil
}

// flushAll stores every pending chunk; the checkpoint snapshot calls it
// so the snapshotted flushed-chunk counts cover all archived tuples.
func (a *archive) flushAll() error {
	a.stash()
	for p := range a.pending {
		if err := a.flushPane(p); err != nil {
			return err
		}
	}
	return nil
}

// fetch returns every archived tuple with position in [start, end),
// flushing pending chunks of the covered panes first.
func (a *archive) fetch(start, end int64) ([]tuple.Tuple, error) {
	pLo := a.paneOf(start)
	pHi := a.paneOf(end - 1)
	var out []tuple.Tuple
	for p := pLo; p <= pHi; p++ {
		if err := a.flushPane(p); err != nil {
			return nil, err
		}
		ts, err := a.store.Get(a.paneKey(p))
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue // pane received no tuples
			}
			return nil, err
		}
		for _, t := range ts {
			if t.Ts >= start && t.Ts < end {
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// prefetch asks the spill plane to warm its cache with the already-
// flushed panes covering [start, end), so a window whose fire time the
// watermark is approaching finds its spilled tuples in memory instead
// of paying a round-trip to S per pane. Pending in-memory chunks are
// deliberately not flushed: the plane appends each later chunk to the
// cached segment as it lands, keeping the cache coherent.
func (a *archive) prefetch(start, end int64) {
	if !a.store.Async() {
		return
	}
	pLo := a.paneOf(start)
	pHi := a.paneOf(end - 1)
	var keys []string
	for p := pLo; p <= pHi; p++ {
		if a.flushed[p] > 0 {
			keys = append(keys, a.paneKey(p))
		}
	}
	if len(keys) > 0 {
		a.store.Prefetch(keys...)
	}
}

// prefetchAhead is the managers' PrefetchWatermark: once the watermark
// wm has fired its windows, warm the cache with the panes of the n
// windows that fire next. Count windows close on arrival, not on
// watermarks, and are not read ahead.
func (a *archive) prefetchAhead(lc *window.Lifecycle, wm int64, n int) {
	if a == nil || a.spec.Domain == window.CountDomain {
		return
	}
	first, ok := lc.OpenAfter(wm)
	if !ok {
		return
	}
	for id := first; id < first+window.ID(n); id++ {
		start, end := a.spec.Bounds(id)
		a.prefetch(start, end)
	}
}

// evictBefore deletes panes wholly before position pos: the buffered
// ones are dropped, the stored ones deleted from S in pane order. It
// walks the panes that exist, so a gap in the stream costs nothing.
func (a *archive) evictBefore(pos int64) error {
	if a == nil || !a.haveMin {
		return nil
	}
	a.stash()
	limit := a.paneOf(pos) // panes < limit end at or before pos
	for p, buf := range a.pending {
		if p < limit {
			delete(a.pending, p)
			a.release(buf)
		}
	}
	for _, p := range window.IDsIn(a.flushed, math.MinInt64, limit-1) {
		delete(a.flushed, p)
		if a.deferDel {
			a.deferred = append(a.deferred, a.paneKey(p))
			continue
		}
		if err := a.store.Delete(a.paneKey(p)); err != nil {
			return err
		}
	}
	if limit > a.minPane {
		a.minPane = limit
	}
	return nil
}

// takeDeferred returns and clears the pane keys whose deletion was
// deferred by deferDel.
func (a *archive) takeDeferred() []string {
	if a == nil {
		return nil
	}
	d := a.deferred
	a.deferred = nil
	return d
}

// appendState flushes pending chunks and appends the archive cursor:
// minPane, and per live pane the number of chunks stored. Pane order is
// sorted for deterministic bytes. No archive writes the section of one
// that never held a pane.
func (a *archive) appendState(dst []byte) ([]byte, error) {
	if a == nil {
		return tuple.AppendUvar(tuple.AppendI64(tuple.AppendBool(dst, false), 0), 0), nil
	}
	if err := a.flushAll(); err != nil {
		return nil, err
	}
	// Durability barrier: the snapshot's flushed-chunk counts promise
	// that S holds at least that many chunks per pane, and recovery's
	// Truncate-based rewind relies on it. With the async plane those
	// Stores may still be queued; wait for them to land before the
	// snapshot is acked, so the checkpoint's manifest-is-commit-point
	// semantics extend to spilled state.
	if err := a.store.Flush(); err != nil {
		return nil, err
	}
	dst = tuple.AppendBool(dst, a.haveMin)
	dst = tuple.AppendI64(dst, a.minPane)
	panes := window.IDsIn(a.flushed, math.MinInt64, math.MaxInt64)
	dst = tuple.AppendUvar(dst, uint64(len(panes)))
	for _, p := range panes {
		dst = tuple.AppendI64(dst, p)
		dst = tuple.AppendUvar(dst, uint64(a.flushed[p]))
	}
	return dst, nil
}

// readState restores the cursor written by appendState; errors latch in
// rd. Pending chunks are empty by construction (appendState flushed).
func (a *archive) readState(rd *tuple.WireReader) {
	a.haveMin = rd.Bool()
	a.minPane = rd.I64()
	n := rd.Count(2)
	if rd.Err() != nil {
		return
	}
	a.pending = make(map[int64][]tuple.Tuple)
	a.flushed = make(map[int64]int, n)
	a.deferred = nil
	a.cur, a.curOK = nil, false
	for i := 0; i < n; i++ {
		p := rd.I64()
		c := rd.Uvar()
		if rd.Err() != nil {
			return
		}
		if _, dup := a.flushed[p]; dup || c == 0 {
			rd.Corrupt("archive pane table")
			return
		}
		a.flushed[p] = int(c)
	}
}

// rewind reconciles secondary storage with the restored cursor: panes a
// crashed run created after the snapshot are deleted, panes it extended
// are truncated back to the snapshotted chunk count, and panes the
// snapshot requires must still exist.
func (a *archive) rewind() error {
	if a == nil {
		return nil
	}
	prefix := a.key + "/p"
	keys, err := a.store.List(prefix)
	if err != nil {
		return err
	}
	seen := make(map[int64]bool, len(keys))
	for _, k := range keys {
		p, perr := strconv.ParseInt(strings.TrimPrefix(k, prefix), 10, 64)
		if perr != nil {
			// Foreign file under our prefix; not a pane we manage.
			continue
		}
		want, live := a.flushed[p]
		if !live {
			if err := a.store.Delete(k); err != nil {
				return err
			}
			continue
		}
		seen[p] = true
		if err := a.store.Truncate(k, want); err != nil {
			return err
		}
	}
	for p := range a.flushed {
		if !seen[p] {
			return fmt.Errorf("core: rewind: archive pane %d missing from store", p)
		}
	}
	return nil
}
