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
// every field that influences future output into one versioned blob,
// map iteration sorted so that identical state produces identical bytes
// (the checkpoint manifest checksums blobs). Archive panes in S are not
// copied: the blob records how many chunks of each pane it covers, and
// RewindStore truncates or deletes what a crashed run wrote after it.
// Deletions are deferred while checkpointing is on
// (Config.DeferStoreDeletes) so a rewind never needs a deleted segment.

// Type tags, one per shape (shape.format). A reader accepts exactly the
// format its writer emits (DESIGN.md §10.4): a format change replaces
// the tag, and every retired one ('S', 's', 't', 'u', 'G', 'g', 'h',
// 'E', 'Q', 'R', 'I') fails like any unknown byte.
const (
	snapScalar       byte = 0x76 // 'v'
	snapGrouped      byte = 0x69 // 'i'
	snapBuffer       byte = 0x62 // 'b'
	snapAccumulators byte = 0x61 // 'a'
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
// the shedding flag and count, the archive section (empty for a manager
// that archives nothing) — then the shape's windows.
func (s *shell) snapshot() ([]byte, error) {
	_, tag := s.sh.format()
	dst := tuple.AppendBool([]byte{tag}, s.arc != nil)
	dst = appendCursor(dst, s.lc.Cursor())
	dst = tuple.AppendUvar(dst, uint64(s.curBudget))
	dst = tuple.AppendBool(dst, s.shed)
	dst = tuple.AppendI64(dst, s.sheds)
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
	sheds := rd.I64()
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
	if sheds < 0 {
		return fmt.Errorf("%w: %s snapshot counters", tuple.ErrCorrupt, kind)
	}
	if !archives {
		if len(arc.flushed) != 0 {
			return fmt.Errorf("%w: %s snapshot lists panes for a manager that archives nothing", tuple.ErrCorrupt, kind)
		}
		arc = nil
	}
	if err := s.lc.SetCursor(cur); err != nil {
		return err
	}
	apply()
	s.arc, s.curBudget, s.sheds = arc, int(curBudget), sheds
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
	dst = tuple.AppendUvar(dst, uint64(len(m.slices)))
	for _, s := range m.slices {
		dst = tuple.AppendI64(tuple.AppendI64(dst, int64(s.lo)), int64(s.hi))
		dst = s.acc.AppendTo(dst)
	}
	return dst
}

func (m *ScalarManager) readWindows(rd *tuple.WireReader) (func(), error) {
	n := rd.Count(2)
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	wins := make(map[window.ID]*scalarWin, n)
	for i := 0; i < n; i++ {
		id := window.ID(rd.I64())
		w := &scalarWin{}
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
		if _, dup := wins[id]; dup {
			return nil, fmt.Errorf("%w: duplicate scalar window %d", tuple.ErrCorrupt, id)
		}
		wins[id] = w
	}
	// Every slice is named by the assignment of the positions it holds,
	// and follows the one before it.
	sls := make([]slice, rd.Count(sliceBytes))
	for i := range sls {
		s := &sls[i]
		s.lo, s.hi = window.ID(rd.I64()), window.ID(rd.I64())
		s.acc.ReadFrom(rd)
		start, _ := m.cfg.Spec.Slice(s.lo, s.hi)
		if lo, hi := m.cfg.Spec.Assign(start); lo != s.lo || hi != s.hi || i > 0 && !s.after(sls[i-1].lo, sls[i-1].hi) {
			rd.Corrupt("scalar slice table")
		}
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if inc := !m.cfg.archives(); inc && len(wins) > 0 || !inc && len(sls) > 0 {
		return nil, fmt.Errorf("%w: scalar snapshot incremental state mismatches configuration", tuple.ErrCorrupt)
	}
	return func() { m.wins, m.slices = wins, sls }, nil
}

// ---- GroupedManager ----

// SnapshotState implements the checkpoint Snapshotter contract.
func (m *GroupedManager) SnapshotState() ([]byte, error) { return m.snapshot() }

func (m *GroupedManager) format() (string, byte) { return "grouped", snapGrouped }

func (m *GroupedManager) appendWindows(dst []byte) []byte {
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
	return dst
}

func (m *GroupedManager) readWindows(rd *tuple.WireReader) (func(), error) {
	n := rd.Count(2)
	if rd.Err() != nil {
		return nil, rd.Err()
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
		if _, dup := wins[id]; dup {
			return nil, fmt.Errorf("%w: duplicate grouped window %d", tuple.ErrCorrupt, id)
		}
		wins[id] = w
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
	ids := window.IDsIn(m.wins, math.MinInt64, math.MaxInt64)
	dst = tuple.AppendUvar(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = m.wins[id].AppendTo(tuple.AppendI64(dst, int64(id)))
	}
	return dst
}

func (m *IncrementalManager) readWindows(rd *tuple.WireReader) (func(), error) {
	n := rd.Count(8 + 48)
	wins := make(map[window.ID]*agg.Incremental, n)
	for i := 0; i < n; i++ {
		id := window.ID(rd.I64())
		inc, _ := agg.NewIncremental(m.cfg.Agg) // the constructor refused what has none
		inc.ReadFrom(rd)
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if _, dup := wins[id]; dup {
			return nil, fmt.Errorf("%w: duplicate incremental window %d", tuple.ErrCorrupt, id)
		}
		wins[id] = inc
	}
	return func() { m.wins = wins }, nil
}
