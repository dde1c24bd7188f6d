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
// the wrong manager fails loudly instead of silently misdecoding. 'Q'
// (0x51) is retired (DESIGN.md §10.4) and fails like any unknown tag.
const snapSingleBuffer byte = 0x52 // 'R'

// SnapshotState serializes the manager: sequence/fire cursors, the
// peak, then the buffered rows' column image (tuple.AppendColumns) to
// the end of the blob.
func (m *SingleBuffer) SnapshotState() ([]byte, error) {
	dst := []byte{snapSingleBuffer}
	c := m.lc.Cursor()
	dst = tuple.AppendI64(dst, c.Seq)
	dst = tuple.AppendI64(dst, c.MaxPos)
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.Late)
	dst = tuple.AppendUvar(dst, uint64(m.peak))
	return tuple.AppendColumns(dst, m.buf), nil
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
	peak := int(rd.Uvar())
	if rd.Err() != nil {
		return rd.Err()
	}
	buf, err := tuple.DecodeColumns(nil, b[len(b)-rd.Remaining():])
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
