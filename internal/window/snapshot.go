package window

import (
	"fmt"

	"spear/internal/tuple"
)

// Checkpoint support for the single-buffer manager, the design the
// exact baseline runs (the multi-buffer design exists for the paper's
// buffering-cost comparison and is never checkpointed). It implements
// the checkpoint Snapshotter contract: SnapshotState serializes every
// field that influences future output, RestoreState rebuilds it. The
// buffer keeps nothing in secondary storage, so there is nothing to
// rewind.

// snapSingleBuffer is the versioned type tag, so a blob restored into
// the wrong manager fails loudly instead of silently misdecoding.
const snapSingleBuffer byte = 0x51 // 'Q'-ish: single buffer, version 1

// SnapshotState serializes the manager: sequence/fire cursors and the
// in-memory buffer. The layout keeps three slots from when the buffer
// could spill to S (spilled count, segment sequence, chunk count); they
// are written as zero.
func (m *SingleBuffer) SnapshotState() ([]byte, error) {
	dst := []byte{snapSingleBuffer}
	c := m.lc.Cursor()
	dst = tuple.AppendI64(dst, c.Seq)
	dst = tuple.AppendI64(dst, c.MaxPos)
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.Late)
	dst = tuple.AppendI64(dst, 0)  // spilled tuples
	dst = tuple.AppendUvar(dst, 0) // spill segment sequence
	dst = tuple.AppendUvar(dst, 0) // chunks in the spill segment
	dst = tuple.AppendUvar(dst, uint64(m.peak))
	dst = tuple.AppendBlob(dst, tuple.EncodeBatch(m.buf))
	return dst, nil
}

// RestoreState implements the checkpoint Snapshotter contract.
func (m *SingleBuffer) RestoreState(b []byte) error {
	rd := tuple.NewWireReader(b)
	if tag := rd.Byte(); tag != snapSingleBuffer {
		if rd.Err() == nil {
			return fmt.Errorf("%w: single-buffer snapshot tag 0x%02x", tuple.ErrCorrupt, tag)
		}
		return rd.Err()
	}
	c := Cursor{Seq: rd.I64(), MaxPos: rd.I64(), Started: rd.Bool(), Fired: rd.Bool(), NextFire: ID(rd.I64()), Late: rd.I64()}
	spilled, segSeq, segChunks := rd.I64(), rd.Uvar(), rd.Uvar()
	peak := int(rd.Uvar())
	bufBlob := rd.Blob()
	if err := rd.Done(); err != nil {
		return err
	}
	if spilled != 0 || segSeq != 0 || segChunks != 0 {
		// A buffer keeps no tuples in S, so no fire could fetch them.
		return fmt.Errorf("%w: single-buffer snapshot has spilled state", tuple.ErrCorrupt)
	}
	buf, err := tuple.DecodeBatch(bufBlob)
	if err != nil {
		return err
	}
	bytes := 0
	for _, t := range buf {
		bytes += t.MemSize()
	}
	if err := m.lc.SetCursor(c); err != nil {
		return err
	}
	m.buf, m.bufBytes, m.peak = buf, bytes, peak
	return nil
}
