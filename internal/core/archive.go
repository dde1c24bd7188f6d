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
// windows, and a window fetch reads exactly Range/Slide panes. Writes
// are batched in chunks: a pane's buffer is transient working memory,
// not window state, bounded by the chunk size.
//
// A manager with no exact fallback to fetch holds no archive: what it
// calls on every path — evict, snapshot section, rewind, deferred
// deletes — takes nil as the archive that holds nothing.
type archive struct {
	// store is always a spill.Plane, a synchronous passthrough where the
	// plane is not enabled: no ingest path talks to S directly
	// (TestIngestDoesNotWaitForTheStore).
	store *spill.Plane
	key   string
	spec  window.Spec
	chunk int

	// panes are the panes that hold tuples, keyed by pane index.
	panes ordered[int64, pane]

	// free holds the backing arrays of finished pane buffers, stored or
	// evicted, for the next pane to start in: the steady state allocates
	// no buffer. Cleared when parked; bounded by the panes live at once.
	free [][]tuple.Tuple

	// deferDel switches evictBefore from deleting panes to recording
	// them; the checkpoint coordinator deletes them once the checkpoint
	// that no longer references them is durable (deleting eagerly would
	// strand a restored snapshot that still needs the pane for its exact
	// fallback).
	deferDel bool
	deferred []string
}

// pane is one tumbling interval of one slide: the chunk it is
// buffering, and the number of chunks it has stored in S, which a
// snapshot records so that recovery can Truncate away chunks a crashed
// run appended after it. Its key is built at its first store (or its
// restore), so a pane that is never flushed allocates nothing.
type pane struct {
	key     string
	buf     []tuple.Tuple
	flushed int
}

func newArchive(store storage.SpillStore, key string, spec window.Spec, chunk int, deferDel bool) *archive {
	return &archive{store: spill.AsPlane(store), key: key, spec: spec, chunk: chunk, deferDel: deferDel}
}

// paneOf returns the pane of position pos: its newest window.
func (a *archive) paneOf(pos int64) int64 {
	_, hi := a.spec.Assign(pos)
	return int64(hi)
}

func (a *archive) paneKey(p int64) string { return fmt.Sprintf("%s/p%d", a.key, p) }

// paneFor returns pane p, listing it at its place if it is new. A run
// that leaves the newest pane parks its buffer if a flush emptied it.
func (a *archive) paneFor(p int64) *pane {
	if n := len(a.panes.keys); n > 0 && a.panes.keys[n-1] != p && len(a.panes.vals[n-1].buf) == 0 {
		a.park(&a.panes.vals[n-1])
	}
	return &a.panes.fill(p, p, nil)[0]
}

// flush stores pane p's buffered chunk, if it holds one.
func (a *archive) flush(p int64, pn *pane) error {
	if len(pn.buf) == 0 {
		return nil
	}
	if pn.key == "" {
		pn.key = a.paneKey(p)
	}
	if err := a.store.Store(pn.key, pn.buf); err != nil {
		return fmt.Errorf("core: archive pane %d: %w", p, err)
	}
	pn.flushed++
	pn.buf = pn.buf[:0] // backing array recycled in place
	return nil
}

// park gives pane pn's buffer to the free list, cleared to its capacity
// (a chunk flushed in place leaves tuples beyond the length).
func (a *archive) park(pn *pane) {
	if cap(pn.buf) > 0 {
		clear(pn.buf[:cap(pn.buf)])
		a.free = append(a.free, pn.buf[:0])
	}
	pn.buf = nil
}

// addRun buffers a run of tuples that share pane p, flushing the pane's
// chunk each time it fills. This is the hot path of every manager ("τ is
// stored in S" runs for each arrival): one pane-index compare at the end
// of the list and one bulk append a chunk, into a recycled backing
// array. A run of Spec.EachRun shares its newest window hi, and hi =
// ⌊pos/Slide⌋ is the pane. pos are the rows' positions; in the count
// domain that is what a pane stores as their Ts.
func (a *archive) addRun(p int64, pos []int64, rows []tuple.Tuple) error {
	pn := a.paneFor(p)
	if n := len(a.free); cap(pn.buf) == 0 && n > 0 {
		pn.buf, a.free[n-1] = a.free[n-1], nil
		a.free = a.free[:n-1]
	}
	for len(rows) > 0 {
		at := len(pn.buf)
		k := min(len(rows), max(a.chunk-at, 1))
		pn.buf = append(pn.buf, rows[:k]...)
		if a.spec.Domain == window.CountDomain {
			for i, q := range pos[:k] {
				pn.buf[at+i].Ts = q
			}
		}
		rows, pos = rows[k:], pos[k:]
		if len(pn.buf) >= a.chunk {
			if err := a.flush(p, pn); err != nil {
				return err
			}
		}
	}
	if keys := a.panes.keys; len(pn.buf) == 0 && keys[len(keys)-1] != p {
		a.park(pn) // an older pane's chunk is stored; it sees stragglers at most
	}
	return nil
}

// fetch appends to dst[:0] every archived tuple with position in
// [start, end), flushing the buffered chunks of the covered panes first.
// It reads the panes the list holds, each of which has stored a chunk.
func (a *archive) fetch(dst []tuple.Tuple, start, end int64) ([]tuple.Tuple, error) {
	dst = dst[:0]
	keys, pns := a.panes.span(a.paneOf(start), a.paneOf(end-1)+1)
	for i := range pns {
		if err := a.flush(keys[i], &pns[i]); err != nil {
			return dst, err
		}
		a.park(&pns[i])
		ts, err := a.store.Get(pns[i].key)
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue // a restored pane the store does not hold
			}
			return dst, err
		}
		for _, t := range ts {
			if t.Ts >= start && t.Ts < end {
				dst = append(dst, t)
			}
		}
	}
	return dst, nil
}

// evictBefore drops the panes wholly before position pos, a prefix of
// the list: their buffers are parked, their stored chunks deleted from S
// in pane order, through the first failed Delete. It walks the panes
// that exist, so a gap in the stream costs nothing.
func (a *archive) evictBefore(pos int64) error {
	if a == nil {
		return nil
	}
	keys, old := a.panes.span(math.MinInt64, a.paneOf(pos)) // they end at or before pos
	var err error
	i := 0
	for ; i < len(old) && err == nil; i++ {
		pn := &old[i]
		a.park(pn)
		switch {
		case pn.flushed == 0:
		case a.deferDel:
			a.deferred = append(a.deferred, pn.key)
		default:
			err = a.store.Delete(pn.key)
		}
	}
	if i > 0 {
		a.panes.dropBefore(keys[i-1] + 1)
	}
	return err
}

// takeDeferred returns and clears the pane keys whose deletion was
// deferred by deferDel.
func (a *archive) takeDeferred() (d []string) {
	if a != nil {
		d, a.deferred = a.deferred, nil
	}
	return d
}

// appendState stores every buffered chunk, so that the chunk counts
// cover all archived tuples, and appends the archive's pane table: the
// number of panes, then per pane, ascending, its index and the number of
// chunks it stored, one at least. No archive writes an empty table.
func (a *archive) appendState(dst []byte) ([]byte, error) {
	if a == nil {
		return tuple.AppendUvar(dst, 0), nil
	}
	keys, pns := a.panes.keys, a.panes.vals
	for i, p := range keys {
		if err := a.flush(p, &pns[i]); err != nil {
			return nil, err
		}
		a.park(&pns[i])
	}
	// Durability barrier: recovery's Truncate-based rewind relies on S
	// holding the counted chunks, so Stores still queued on the async
	// plane land before the snapshot is acked.
	if err := a.store.Flush(); err != nil {
		return nil, err
	}
	dst = tuple.AppendUvar(dst, uint64(len(keys)))
	for i, p := range keys {
		dst = tuple.AppendUvar(tuple.AppendI64(dst, p), uint64(pns[i].flushed))
	}
	return dst, nil
}

// readState restores the pane table written by appendState into an
// archive that holds none; errors latch in rd. A table out of pane order
// or with a pane of no chunk is refused.
func (a *archive) readState(rd *tuple.WireReader) {
	n := rd.Count(9)
	for i := 0; i < n; i++ {
		p, c := rd.I64(), rd.Uvar()
		if rd.Err() != nil {
			return
		}
		if c == 0 || !a.panes.push(p, pane{key: a.paneKey(p), flushed: int(c)}) {
			rd.Corrupt("archive pane table")
			return
		}
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
	seen := map[int64]bool{}
	for _, k := range keys {
		p, perr := strconv.ParseInt(strings.TrimPrefix(k, prefix), 10, 64)
		if perr != nil {
			// Foreign file under our prefix; not a pane we manage.
			continue
		}
		pn := a.panes.find(p)
		if pn == nil {
			if err := a.store.Delete(k); err != nil {
				return err
			}
			continue
		}
		seen[p] = true
		if err := a.store.Truncate(k, pn.flushed); err != nil {
			return err
		}
	}
	for _, p := range a.panes.keys {
		if !seen[p] {
			return fmt.Errorf("core: rewind: archive pane %d missing from store", p)
		}
	}
	return nil
}
