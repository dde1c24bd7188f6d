package window

import (
	"fmt"
	"strings"

	"spear/internal/tuple"
)

// Checkpoint support for the single-buffer manager, the design the
// engine runs (the multi-buffer design exists for the paper's
// buffering-cost comparison and is never checkpointed). It implements
// the checkpoint Snapshotter contract: SnapshotState serializes every
// field that influences future output, RestoreState rebuilds it, and —
// because SingleBuffer also keeps state in secondary storage S —
// RewindStore reconciles the spill segments a crashed run may have
// appended after the snapshot was taken.

// snapSingleBuffer is the versioned type tag, so a blob restored into
// the wrong manager fails loudly instead of silently misdecoding.
const snapSingleBuffer byte = 0x51 // 'Q'-ish: single buffer, version 1

// SnapshotState serializes the manager: sequence/fire cursors, the
// in-memory buffer, and the spill-segment cursor (segSeq + chunk count)
// that RewindStore uses to put S back exactly as it was.
func (m *SingleBuffer) SnapshotState() ([]byte, error) {
	// Durability barrier: segChunks promises that S holds that many
	// chunks of the current segment; with the async spill plane those
	// Stores may still be in flight, and the checkpoint must not ack
	// (and thus must not commit) until they land.
	if m.store != nil {
		if err := m.store.Barrier(); err != nil {
			return nil, err
		}
	}
	dst := []byte{snapSingleBuffer}
	c := m.lc.Cursor()
	dst = tuple.AppendI64(dst, c.Seq)
	dst = tuple.AppendI64(dst, c.MaxPos)
	dst = tuple.AppendBool(dst, c.Started)
	dst = tuple.AppendBool(dst, c.Fired)
	dst = tuple.AppendI64(dst, int64(c.NextFire))
	dst = tuple.AppendI64(dst, c.Late)
	dst = tuple.AppendI64(dst, m.spilledCnt)
	dst = tuple.AppendUvar(dst, uint64(m.segSeq))
	dst = tuple.AppendUvar(dst, uint64(m.segChunks))
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
	spilledCnt := rd.I64()
	segSeq := rd.Uvar()
	segChunks := rd.Uvar()
	peak := rd.Uvar()
	bufBlob := rd.Blob()
	if err := rd.Done(); err != nil {
		return err
	}
	if spilledCnt < 0 {
		return fmt.Errorf("%w: negative single-buffer counter", tuple.ErrCorrupt)
	}
	if spilledCnt > 0 && m.store == nil {
		// The next trigger would fetch them from a store that is not there.
		return fmt.Errorf("%w: single-buffer snapshot has spilled tuples, manager has no spill store", tuple.ErrCorrupt)
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
	m.spilledCnt = spilledCnt
	m.segSeq, m.segChunks = int(segSeq), int(segChunks)
	m.buf, m.bufBytes, m.peak = buf, bytes, int(peak)
	m.deferred = nil
	return nil
}

// TakeDeferredDeletes returns and clears the segment keys whose
// deletion was deferred by Config.DeferDeletes. The checkpoint
// coordinator executes them after the next checkpoint commits.
func (m *SingleBuffer) TakeDeferredDeletes() []string {
	d := m.deferred
	m.deferred = nil
	return d
}

// RewindStore reconciles secondary storage with the restored state: a
// crashed run may have appended chunks to the current segment, started
// later segments, or (with deferred deletes off) raced a deletion. The
// restored state needs exactly segChunks chunks of segment segSeq and
// nothing else under this manager's key prefix.
func (m *SingleBuffer) RewindStore() error {
	if m.cfg.Store == nil {
		return nil
	}
	prefix := m.cfg.Key + "#"
	keys, err := m.store.List(prefix)
	if err != nil {
		return err
	}
	cur := m.spillKey()
	for _, k := range keys {
		if k == cur && m.segChunks > 0 {
			if err := m.store.Truncate(k, m.segChunks); err != nil {
				return err
			}
			continue
		}
		if err := m.store.Delete(k); err != nil {
			return err
		}
	}
	if m.segChunks > 0 {
		// The snapshot says chunks exist; verify the segment survived.
		if !containsKey(keys, cur) {
			return fmt.Errorf("window: rewind: spill segment %q missing from store", cur)
		}
	}
	return nil
}

func containsKey(keys []string, k string) bool {
	for _, have := range keys {
		if have == k {
			return true
		}
	}
	return false
}

// Key returns the manager's segment namespace; the checkpoint layer
// uses it to sanity-check operator wiring.
func (m *SingleBuffer) Key() string { return m.cfg.Key }

// HasPrefix reports whether key lives under this manager's namespace.
func (m *SingleBuffer) HasPrefix(key string) bool {
	return strings.HasPrefix(key, m.cfg.Key+"#")
}
