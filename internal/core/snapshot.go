package core

import (
	"fmt"

	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/tuple"
	"spear/internal/window"
)

// Checkpoint support for the window managers. Each manager serializes
// every field that influences future output into one versioned blob,
// every table in ascending key order, so that identical state produces
// identical bytes (the checkpoint manifest checksums blobs) and a table
// out of order is corrupt. Archive panes in S are not
// copied: the blob records how many chunks of each pane it covers, and
// RewindStore truncates or deletes what a crashed run wrote after it.
// Deletions are deferred while checkpointing is on
// (Config.DeferStoreDeletes) so a rewind never needs a deleted segment.

// Type tags, one per shape (shape.format). A reader accepts exactly the
// format its writer emits (DESIGN.md §10.4): a format change replaces
// the tag, and every retired one ('S', 's', 't', 'u', 'v', 'G', 'g',
// 'h', 'i', 'E', 'Q', 'R', 'b', 'I', 'a') fails like any unknown byte.
const (
	snapScalar       byte = 0x77 // 'w'
	snapGrouped      byte = 0x6a // 'j'
	snapBuffer       byte = 0x63 // 'c'
	snapAccumulators byte = 0x64 // 'd'
)

// appendCursor writes a lifecycle's cursor in the order RestoreState reads it.
func appendCursor(dst []byte, c window.Cursor) []byte {
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.Seq)
	dst = tuple.AppendI64(dst, c.MaxPos)
	return tuple.AppendI64(dst, c.Late)
}

// ---- the shell ----

// snapshot is the managers' SnapshotState: the header — the shape's
// tag, whether the manager archives, the lifecycle's cursor, the budget,
// the shedding flag, the archive's pane table (empty for a manager that
// archives nothing) — then the shape's windows.
func (s *shell) snapshot() ([]byte, error) {
	_, tag := s.sh.format()
	dst := tuple.AppendBool([]byte{tag}, s.arc != nil)
	dst = appendCursor(dst, s.lc.Cursor())
	dst = tuple.AppendUvar(dst, uint64(s.curBudget))
	dst = tuple.AppendBool(dst, s.shed)
	dst, err := s.arc.appendState(dst)
	if err != nil {
		return nil, err
	}
	return s.sh.appendWindows(dst), nil
}

// RestoreState implements the checkpoint Snapshotter contract for every
// manager. A blob that does not decode whole leaves the manager as it was.
func (s *shell) RestoreState(b []byte) error {
	rd := tuple.NewWireReader(b)
	kind, written := s.sh.format()
	if tag := rd.Byte(); tag != written && rd.Err() == nil {
		return fmt.Errorf("%w: %s snapshot tag 0x%02x", tuple.ErrCorrupt, kind, tag)
	}
	archives, flag := s.arc != nil, rd.Bool()
	cur := window.Cursor{Started: rd.Bool(), Fired: rd.Bool(), NextFire: window.ID(rd.I64()), Seq: rd.I64(), MaxPos: rd.I64(), Late: rd.I64()}
	curBudget := rd.Uvar() // zero is legal: reservoirs dropped, exact-only
	shed := rd.Bool()
	arc := newArchive(s.cfg.Store, s.cfg.Key, s.cfg.Spec, s.cfg.ArchiveChunk, s.cfg.DeferStoreDeletes)
	arc.readState(rd)
	if rd.Err() != nil {
		return rd.Err()
	}
	if flag != archives {
		return fmt.Errorf("%w: %s snapshot mode mismatches configuration", tuple.ErrCorrupt, kind)
	}
	apply, err := s.sh.readWindows(rd)
	if err != nil {
		return err
	}
	if err := rd.Done(); err != nil {
		return err
	}
	if !archives {
		if len(arc.panes.keys) != 0 {
			return fmt.Errorf("%w: %s snapshot lists panes for a manager that archives nothing", tuple.ErrCorrupt, kind)
		}
		arc = nil
	}
	if err := s.lc.SetCursor(cur); err != nil {
		return err
	}
	apply()
	s.arc, s.curBudget = arc, int(curBudget)
	s.SetShedding(shed)
	// The cell is the controller's source of truth, so recovery
	// republishes the restored controls there, and to the gauge.
	if c := s.cfg.Cell; c != nil {
		c.Set(s.curBudget, s.shed)
	}
	s.cfg.Metrics.BudgetTuples.Set(int64(s.curBudget))
	return nil
}

// ---- ScalarManager ----

// SnapshotState implements the checkpoint Snapshotter contract.
func (m *ScalarManager) SnapshotState() ([]byte, error) { return m.snapshot() }

func (m *ScalarManager) format() (string, byte) { return "scalar", snapScalar }

func (m *ScalarManager) appendWindows(dst []byte) []byte {
	dst = tuple.AppendUvar(dst, uint64(len(m.wins.keys)))
	for i, id := range m.wins.keys {
		w := &m.wins.vals[i]
		dst = tuple.AppendI64(dst, int64(id))
		dst = tuple.AppendBool(dst, w.res != nil)
		if w.res != nil {
			dst = w.res.AppendTo(dst)
		}
		dst = tuple.AppendI64(dst, w.n)
		dst = tuple.AppendBool(dst, w.tainted)
	}
	dst = tuple.AppendUvar(dst, uint64(len(m.slices.vals)))
	for _, s := range m.slices.vals {
		dst = tuple.AppendI64(tuple.AppendI64(dst, int64(s.lo)), int64(s.hi))
		dst = s.acc.AppendTo(dst)
	}
	return dst
}

func (m *ScalarManager) readWindows(rd *tuple.WireReader) (func(), error) {
	n := rd.Count(2)
	var wins ordered[window.ID, scalarWin]
	for i := 0; i < n; i++ {
		id := window.ID(rd.I64())
		var w scalarWin
		if rd.Bool() { // absent where the budget had collapsed to zero
			w.res = sample.ReadReservoir(rd)
		}
		if w.n = rd.I64(); w.n < 0 {
			rd.Corrupt("negative scalar window count")
		}
		w.tainted = rd.Bool()
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if !wins.push(id, w) {
			return nil, fmt.Errorf("%w: scalar window %d out of id order", tuple.ErrCorrupt, id)
		}
	}
	// Every slice is named by the assignment of the positions it holds,
	// and follows the one before it.
	var sls ordered[int64, slice]
	ns := rd.Count(sliceBytes)
	for i := 0; i < ns; i++ {
		var s slice
		s.lo, s.hi = window.ID(rd.I64()), window.ID(rd.I64())
		s.acc.ReadFrom(rd)
		start, _ := m.cfg.Spec.Slice(s.lo, s.hi)
		if lo, hi := m.cfg.Spec.Assign(start); lo != s.lo || hi != s.hi || !sls.push(start, s) {
			rd.Corrupt("scalar slice table")
		}
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if inc := !m.cfg.archives(); inc && n > 0 || !inc && ns > 0 {
		return nil, fmt.Errorf("%w: scalar snapshot incremental state mismatches configuration", tuple.ErrCorrupt)
	}
	return func() { m.wins, m.slices = wins, sls }, nil
}

// ---- GroupedManager ----

// SnapshotState implements the checkpoint Snapshotter contract.
func (m *GroupedManager) SnapshotState() ([]byte, error) { return m.snapshot() }

func (m *GroupedManager) format() (string, byte) { return "grouped", snapGrouped }

func (m *GroupedManager) appendWindows(dst []byte) []byte {
	dst = tuple.AppendUvar(dst, uint64(len(m.wins.keys)))
	for i, id := range m.wins.keys {
		w := m.wins.vals[i]
		dst = tuple.AppendI64(dst, int64(id))
		dst = w.gs.AppendTo(dst)
		dst = tuple.AppendBool(dst, w.known != nil)
		if w.known != nil {
			dst = w.known.AppendTo(dst)
		}
		dst = tuple.AppendBool(dst, w.tainted)
	}
	return dst
}

func (m *GroupedManager) readWindows(rd *tuple.WireReader) (func(), error) {
	n := rd.Count(2)
	// The dictionary is not in the blob: decoding the windows' sorted
	// keys rebuilds it, into a fresh one that replaces the live one only
	// if the whole blob is good.
	dict := sample.NewKeyDict()
	var wins ordered[window.ID, *groupedWin]
	for i := 0; i < n; i++ {
		id := window.ID(rd.I64())
		w := &groupedWin{gs: dict.ReadGroupStats(rd)}
		hasKnown := rd.Bool()
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		// A known-path window opened while the adaptive budget was below
		// KnownGroups has no reservoirs (metadata-only, exact-only);
		// reservoirs without declared groups are impossible.
		if hasKnown && m.cfg.KnownGroups == 0 {
			return nil, fmt.Errorf("%w: grouped window %d reservoir flag mismatch", tuple.ErrCorrupt, id)
		}
		if hasKnown {
			w.known = dict.ReadGroupReservoirs(rd)
		}
		w.tainted = rd.Bool()
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if !wins.push(id, w) {
			return nil, fmt.Errorf("%w: grouped window %d out of id order", tuple.ErrCorrupt, id)
		}
	}
	// The pool points into the replaced dictionary.
	return func() { m.dict, m.wins, m.pool = dict, wins, nil }, nil
}

// ---- ExactManager ----

// SnapshotState implements the checkpoint Snapshotter contract.
func (m *ExactManager) SnapshotState() ([]byte, error) { return m.snapshot() }

func (m *ExactManager) format() (string, byte) { return "exact", snapBuffer }

// appendWindows writes the buffer, its rows at their positions, as a
// column image (tuple.AppendColumns) to the end of the blob. Nothing is
// staged between two fires.
func (m *ExactManager) appendWindows(dst []byte) []byte { return tuple.AppendColumns(dst, m.buf) }

// readWindows refuses a row the query's extractors cannot read: the
// query did not buffer it, and the fire would panic on it.
func (m *ExactManager) readWindows(rd *tuple.WireReader) (apply func(), err error) {
	buf, err := tuple.DecodeColumns(nil, rd.Rest())
	if err != nil {
		return nil, err
	}
	defer func() {
		if recover() != nil {
			apply, err = nil, fmt.Errorf("%w: exact snapshot holds a row the query cannot read", tuple.ErrCorrupt)
		}
	}()
	bytes := 0
	for _, t := range buf {
		bytes += t.MemSize()
		m.cfg.Value(t)
		if m.cfg.KeyBy != nil {
			m.cfg.KeyBy(t)
		}
	}
	return func() { m.buf, m.bufBytes = buf, bytes }, nil
}

// ---- IncrementalManager ----

// SnapshotState implements the checkpoint Snapshotter contract.
func (m *IncrementalManager) SnapshotState() ([]byte, error) { return m.snapshot() }

func (m *IncrementalManager) format() (string, byte) { return "incremental", snapAccumulators }

func (m *IncrementalManager) appendWindows(dst []byte) []byte {
	dst = tuple.AppendUvar(dst, uint64(len(m.wins.keys)))
	for i, id := range m.wins.keys {
		dst = m.wins.vals[i].AppendTo(tuple.AppendI64(dst, int64(id)))
	}
	return dst
}

func (m *IncrementalManager) readWindows(rd *tuple.WireReader) (func(), error) {
	n := rd.Count(8 + 48)
	var wins ordered[window.ID, stats.Welford]
	for i := 0; i < n; i++ {
		id := window.ID(rd.I64())
		var w stats.Welford
		w.ReadFrom(rd)
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if !wins.push(id, w) {
			return nil, fmt.Errorf("%w: incremental window %d out of id order", tuple.ErrCorrupt, id)
		}
	}
	return func() { m.wins = wins }, nil
}
