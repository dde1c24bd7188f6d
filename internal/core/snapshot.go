package core

import (
	"fmt"
	"math"

	"spear/internal/agg"
	"spear/internal/sample"
	"spear/internal/tuple"
	"spear/internal/window"
)

// Checkpoint support for the window managers. Each manager serializes
// every field that influences future output — fire cursors, per-window
// reservoirs/moments, and the archive's pane table — into one versioned
// blob. Map iteration is sorted so identical state produces identical
// bytes (the checkpoint manifest checksums blobs).
//
// State held in secondary storage S (archive panes) is not copied into
// the blob; instead the blob records how many chunks of each pane the
// snapshot covers, and RewindStore truncates/deletes
// whatever a crashed run wrote after the snapshot. Deletions are
// deferred while checkpointing is on (Config.DeferStoreDeletes) so a
// rewind never needs a segment that is already gone.

// Type tags. A reader accepts the format its writer emits and the one
// before it, nothing older (DESIGN.md §10): a format change replaces the
// older of two read arms instead of adding a third, and a retired tag
// ('S', 's', 'G') fails like any unknown one. Scalar 'u' is the written
// format; 't' kept two slots per window that nothing reads (first
// position, incremental flag) and an incremental accumulator per
// window, which restores as a carry. Grouped 'h' is the written format;
// 'g' is its body where groups were declared, and where they were not it
// nested a window buffer's blob in place of the archive section.
const (
	snapExact       byte = 0x45 // 'E'
	snapIncremental byte = 0x49 // 'I'
	snapScalarV3    byte = 0x74 // 't' (read-only)
	snapScalarV4    byte = 0x75 // 'u'
	snapGroupedV2   byte = 0x67 // 'g' (read-only)
	snapGroupedV3   byte = 0x68 // 'h'
)

// appendCursor writes a window lifecycle's values in the order the
// scalar and incremental formats fixed (the grouped and single-buffer
// formats each fixed another); readCursor reads them back.
func appendCursor(dst []byte, c window.Cursor) []byte {
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.Seq)
	dst = tuple.AppendI64(dst, c.MaxPos)
	return tuple.AppendI64(dst, c.Late)
}

func readCursor(rd *tuple.WireReader) window.Cursor {
	return window.Cursor{Started: rd.Bool(), Fired: rd.Bool(), NextFire: window.ID(rd.I64()), Seq: rd.I64(), MaxPos: rd.I64(), Late: rd.I64()}
}

func badTag(kind string, tag byte, rd *tuple.WireReader) error {
	if rd.Err() != nil {
		return rd.Err()
	}
	return fmt.Errorf("%w: %s snapshot tag 0x%02x", tuple.ErrCorrupt, kind, tag)
}

// ---- ScalarManager ----

// SnapshotState implements the checkpoint Snapshotter contract.
func (m *ScalarManager) SnapshotState() ([]byte, error) {
	dst := appendCursor([]byte{snapScalarV4}, m.lc.Cursor())
	dst = tuple.AppendUvar(dst, uint64(m.curBudget))
	dst = tuple.AppendBool(dst, m.shed)
	dst = tuple.AppendI64(dst, m.sheds)
	var err error
	if dst, err = m.arc.appendState(dst); err != nil {
		return nil, err
	}
	ids := window.IDsIn(m.wins, math.MinInt64, math.MaxInt64)
	dst = tuple.AppendUvar(dst, uint64(len(ids)))
	for _, id := range ids {
		w := m.wins[id]
		dst = tuple.AppendI64(dst, int64(id))
		dst = tuple.AppendBool(dst, w.res != nil)
		if w.res != nil {
			dst = w.res.AppendTo(dst)
		}
		dst = tuple.AppendI64(dst, w.n)
		dst = tuple.AppendBool(dst, w.tainted)
	}
	return appendSlices(appendSlices(dst, m.carry), m.slices), nil
}

func appendSlices(dst []byte, ss []slice) []byte {
	dst = tuple.AppendUvar(dst, uint64(len(ss)))
	for i := range ss {
		dst = tuple.AppendI64(tuple.AppendI64(dst, int64(ss[i].lo)), int64(ss[i].hi))
		dst = ss[i].acc.AppendTo(dst)
	}
	return dst
}

// readSlices reads a table appendSlices wrote: every slice named as
// real says and after the one before it, or the reader is corrupt.
func readSlices(rd *tuple.WireReader, real func(lo, hi window.ID) bool) []slice {
	ss := make([]slice, rd.Count(16+48))
	for i := range ss {
		s := &ss[i]
		s.lo, s.hi = window.ID(rd.I64()), window.ID(rd.I64())
		s.acc.ReadFrom(rd)
		if !real(s.lo, s.hi) || (i > 0 && !s.after(ss[i-1].lo, ss[i-1].hi)) {
			rd.Corrupt("scalar slice table")
		}
	}
	return ss
}

// RestoreState implements the checkpoint Snapshotter contract.
func (m *ScalarManager) RestoreState(b []byte) error {
	rd := tuple.NewWireReader(b)
	tag := rd.Byte()
	v4 := tag == snapScalarV4
	if !v4 && tag != snapScalarV3 {
		return badTag("scalar", tag, rd)
	}
	cur := readCursor(rd)
	curBudget := rd.Uvar() // zero is legal: reservoirs dropped, exact-only
	shed := rd.Bool()
	sheds := rd.I64()
	arc := newArchive(m.cfg.Store, m.cfg.Key, m.cfg.Spec, m.cfg.ArchiveChunk, m.cfg.DeferStoreDeletes)
	arc.readState(rd)
	n := rd.Count(2)
	if rd.Err() != nil {
		return rd.Err()
	}
	wins := make(map[window.ID]*scalarWin, n)
	var carry, sls []slice
	for i := 0; i < n; i++ {
		id := window.ID(rd.I64())
		w := &scalarWin{}
		if !v4 {
			rd.I64() // the window's first position, which nothing read
		}
		if rd.Bool() { // absent where the budget had collapsed to zero
			w.res = sample.ReadReservoir(rd)
		}
		if w.n = rd.I64(); w.n < 0 {
			rd.Corrupt("negative scalar window count")
		}
		w.tainted = rd.Bool()
		_, dup := wins[id]
		if !v4 && rd.Bool() {
			// 't' kept an incremental accumulator per window (and, in
			// blobs from before such windows stopped sampling, a
			// reservoir beside it that nothing read): its carry now.
			c := slice{lo: id, hi: id}
			c.acc.ReadFrom(rd)
			dup = len(carry) > 0 && id <= carry[len(carry)-1].lo
			carry = append(carry, c)
		} else {
			wins[id] = w
		}
		if rd.Err() != nil {
			return rd.Err()
		}
		if dup {
			return fmt.Errorf("%w: duplicate scalar window %d", tuple.ErrCorrupt, id)
		}
	}
	if v4 {
		carry = readSlices(rd, func(lo, hi window.ID) bool { return lo == hi })
		// A slice is named by the assignment of the positions it holds.
		sls = readSlices(rd, func(lo, hi window.ID) bool {
			start, _ := m.cfg.Spec.Slice(lo, hi)
			l, h := m.cfg.Spec.Assign(start)
			return l == lo && h == hi
		})
	}
	if err := rd.Done(); err != nil {
		return err
	}
	inc := m.useIncremental()
	if inc && len(wins) > 0 || !inc && len(carry)+len(sls) > 0 {
		return fmt.Errorf("%w: scalar snapshot incremental state mismatches configuration", tuple.ErrCorrupt)
	}
	if inc {
		// An incremental query archives nothing. A blob from when it did
		// lists panes no fire will read: the manager owns none of them,
		// so RewindStore deletes every pane it finds under the key.
		if len(arc.flushed) > 0 {
			arc = newArchive(m.cfg.Store, m.cfg.Key, m.cfg.Spec, m.cfg.ArchiveChunk, m.cfg.DeferStoreDeletes)
		} else {
			arc = nil
		}
	}
	if sheds < 0 {
		return fmt.Errorf("%w: scalar snapshot counters", tuple.ErrCorrupt)
	}
	if err := m.lc.SetCursor(cur); err != nil {
		return err
	}
	m.curBudget = int(curBudget)
	m.SetShedding(shed)
	m.sheds = sheds
	m.arc = arc
	m.wins, m.carry, m.slices = wins, carry, sls
	m.pushRestoredControl()
	return nil
}

// pushRestoredControl re-publishes the restored budget and shedding
// state to the controller cell (the cells are the controller's source
// of truth, so recovery must rewrite them) and to the budget gauge.
func (m *ScalarManager) pushRestoredControl() {
	if c := m.cfg.Cell; c != nil {
		c.Set(m.curBudget, m.shed)
	}
	m.cfg.Metrics.BudgetTuples.Set(int64(m.curBudget))
}

// RewindStore reconciles archive panes with the restored state.
func (m *ScalarManager) RewindStore() error { return m.arc.rewind() }

// TakeDeferredDeletes returns and clears deferred pane deletions.
func (m *ScalarManager) TakeDeferredDeletes() []string { return m.arc.takeDeferred() }

// ---- GroupedManager ----

// SnapshotState implements the checkpoint Snapshotter contract.
func (m *GroupedManager) SnapshotState() ([]byte, error) {
	dst := tuple.AppendBool([]byte{snapGroupedV3}, m.arc != nil)
	c := m.lc.Cursor()
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.MaxPos)
	dst = tuple.AppendI64(dst, c.Late)
	dst = tuple.AppendI64(dst, c.Seq)
	dst = tuple.AppendUvar(dst, uint64(m.curBudget))
	dst = tuple.AppendBool(dst, m.shed)
	dst = tuple.AppendI64(dst, m.sheds)
	dst, err := m.arc.appendState(dst)
	if err != nil {
		return nil, err
	}
	ids := window.IDsIn(m.wins, math.MinInt64, math.MaxInt64)
	dst = tuple.AppendUvar(dst, uint64(len(ids)))
	for _, id := range ids {
		w := m.wins[id]
		dst = tuple.AppendI64(dst, int64(id))
		dst = w.gs.AppendTo(dst)
		dst = tuple.AppendBool(dst, w.known != nil)
		if w.known != nil {
			dst = w.known.AppendTo(dst)
		}
		dst = tuple.AppendBool(dst, w.tainted)
	}
	return dst, nil
}

// RestoreState implements the checkpoint Snapshotter contract.
func (m *GroupedManager) RestoreState(b []byte) error {
	rd := tuple.NewWireReader(b)
	tag := rd.Byte()
	if tag != snapGroupedV3 && tag != snapGroupedV2 {
		return badTag("grouped", tag, rd)
	}
	// 'h' flags an archive; 'g' flagged declared groups, and without them
	// held a window buffer where the archive section is.
	flag, want := rd.Bool(), m.arc != nil
	if tag == snapGroupedV2 {
		want = m.cfg.KnownGroups > 0
	}
	if rd.Err() == nil && flag != want {
		return fmt.Errorf("%w: grouped snapshot mode mismatches configuration", tuple.ErrCorrupt)
	}
	buffered := tag == snapGroupedV2 && !flag
	cur := window.Cursor{Started: rd.Bool(), Fired: rd.Bool(), NextFire: window.ID(rd.I64()), MaxPos: rd.I64(), Late: rd.I64(), Seq: rd.I64()}
	curBudget := rd.Uvar()
	shed := rd.Bool()
	sheds := rd.I64()
	arc := newArchive(m.cfg.Store, m.cfg.Key, m.cfg.Spec, m.cfg.ArchiveChunk, m.cfg.DeferStoreDeletes)
	var rows []tuple.Tuple
	if buffered {
		// The buffer's cursor is the one the manager ingested by; the
		// header's copy is not read back.
		var err error
		if cur, _, rows, err = window.ReadSingleBuffer(rd.Blob()); err != nil && rd.Err() == nil {
			return err
		}
	} else {
		arc.readState(rd)
	}
	n := rd.Count(2)
	if rd.Err() != nil {
		return rd.Err()
	}
	// The dictionary is not in the blob: decoding the windows' sorted
	// keys rebuilds it, into a fresh one that replaces the live one only
	// if the whole blob is good.
	dict := sample.NewKeyDict()
	wins := make(map[window.ID]*groupedWin, n)
	for i := 0; i < n; i++ {
		id := window.ID(rd.I64())
		w := &groupedWin{gs: dict.ReadGroupStats(rd)}
		hasKnown := rd.Bool()
		if rd.Err() != nil {
			return rd.Err()
		}
		// A known-path window opened while the adaptive budget was below
		// KnownGroups has no reservoirs (metadata-only, exact-only);
		// reservoirs without declared groups are impossible.
		if hasKnown && m.cfg.KnownGroups == 0 {
			return fmt.Errorf("%w: grouped window %d reservoir flag mismatch", tuple.ErrCorrupt, id)
		}
		if hasKnown {
			w.known = dict.ReadGroupReservoirs(rd)
			if rd.Err() != nil {
				return rd.Err()
			}
		}
		w.tainted = rd.Bool()
		if _, dup := wins[id]; dup {
			return fmt.Errorf("%w: duplicate grouped window %d", tuple.ErrCorrupt, id)
		}
		wins[id] = w
	}
	if err := rd.Done(); err != nil {
		return err
	}
	if sheds < 0 {
		return fmt.Errorf("%w: grouped snapshot counters", tuple.ErrCorrupt)
	}
	if m.arc == nil {
		if len(arc.flushed) > 0 {
			return fmt.Errorf("%w: grouped snapshot lists panes for a query that archives nothing", tuple.ErrCorrupt)
		}
		arc = nil
	}
	if err := m.lc.SetCursor(cur); err != nil {
		return err
	}
	if buffered {
		dict, wins = m.unbuffer(rows, arc)
	}
	m.arc = arc
	m.curBudget = int(curBudget)
	m.sheds = sheds
	// The pool points into the replaced dictionary.
	m.dict, m.wins, m.pool = dict, wins, nil
	m.shed = false
	m.SetShedding(shed)
	if c := m.cfg.Cell; c != nil {
		c.Set(m.curBudget, m.shed)
	}
	m.cfg.Metrics.BudgetTuples.Set(int64(m.curBudget))
	return nil
}

// unbuffer rebuilds the open windows of a 'g' blob without declared
// groups from its window buffer: rows, every tuple of those windows in
// arrival order at its position, fold into them as ingest folded them,
// and go to the archive where the manager keeps one — held in memory,
// so that nothing reaches S before RewindStore has reconciled it. The
// blob's list of windows is not read back: it lacks the windows that
// start before position 0, and in blobs of old it names windows, behind
// the oldest open one, that no fire will reach.
func (m *GroupedManager) unbuffer(rows []tuple.Tuple, arc *archive) (*sample.KeyDict, map[window.ID]*groupedWin) {
	dict, wins := sample.NewKeyDict(), map[window.ID]*groupedWin{}
	pos := make([]int64, len(rows))
	for i, t := range rows {
		pos[i] = t.Ts
	}
	m.cfg.Spec.EachRun(pos, func(i0, i1 int, lo, hi window.ID) {
		for id := max(lo, m.lc.NextOpen()); id <= hi; id++ {
			w, ok := wins[id]
			if !ok {
				w = &groupedWin{gs: dict.NewGroupStats()}
				wins[id] = w
			}
			for _, t := range rows[i0:i1] {
				w.gs.Add(m.cfg.KeyBy(t), m.cfg.Value(t))
			}
		}
		if arc != nil {
			arc.rollTo(int64(hi))
			arc.cur = append(arc.cur, rows[i0:i1]...)
		}
	})
	return dict, wins
}

// RewindStore reconciles archive panes with the restored state; a
// manager without an archive keeps nothing in S.
func (m *GroupedManager) RewindStore() error { return m.arc.rewind() }

// TakeDeferredDeletes returns and clears deferred pane deletions.
func (m *GroupedManager) TakeDeferredDeletes() []string { return m.arc.takeDeferred() }

// ---- ExactManager ----

// SnapshotState delegates to the underlying single-buffer manager.
func (m *ExactManager) SnapshotState() ([]byte, error) {
	blob, err := m.buf.SnapshotState()
	if err != nil {
		return nil, err
	}
	return append([]byte{snapExact}, blob...), nil
}

// RestoreState implements the checkpoint Snapshotter contract.
func (m *ExactManager) RestoreState(b []byte) error {
	rd := tuple.NewWireReader(b)
	if tag := rd.Byte(); tag != snapExact {
		return badTag("exact", tag, rd)
	}
	return m.buf.RestoreState(b[1:])
}

// ---- IncrementalManager ----

// SnapshotState implements the checkpoint Snapshotter contract.
func (m *IncrementalManager) SnapshotState() ([]byte, error) {
	dst := appendCursor([]byte{snapIncremental}, m.lc.Cursor())
	ids := window.IDsIn(m.wins, math.MinInt64, math.MaxInt64)
	dst = tuple.AppendUvar(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = tuple.AppendI64(dst, int64(id))
		dst = m.wins[id].AppendTo(dst)
	}
	return dst, nil
}

// RestoreState implements the checkpoint Snapshotter contract.
func (m *IncrementalManager) RestoreState(b []byte) error {
	rd := tuple.NewWireReader(b)
	if tag := rd.Byte(); tag != snapIncremental {
		return badTag("incremental", tag, rd)
	}
	cur := readCursor(rd)
	n := rd.Count(8 + 48)
	if rd.Err() != nil {
		return rd.Err()
	}
	wins := make(map[window.ID]*agg.Incremental, n)
	for i := 0; i < n; i++ {
		id := window.ID(rd.I64())
		inc, err := agg.NewIncremental(m.cfg.Agg)
		if err != nil {
			return err
		}
		inc.ReadFrom(rd)
		if rd.Err() != nil {
			return rd.Err()
		}
		if _, dup := wins[id]; dup {
			return fmt.Errorf("%w: duplicate incremental window %d", tuple.ErrCorrupt, id)
		}
		wins[id] = inc
	}
	if err := rd.Done(); err != nil {
		return err
	}
	if err := m.lc.SetCursor(cur); err != nil {
		return err
	}
	m.wins = wins
	return nil
}
