// Package op is the snapshotcover negative fixture: every tuple-path
// mutation is covered by the codec, configuration writes happen off the
// tuple path, a mutable type that is not a Snapshotter is nobody's
// business, a struct held by value is covered field by field through
// its get and set, and one the holder exempts is exempt whole.
package op

import "fixture.example/snapshotcover_ok/internal/checkpoint"

var _ checkpoint.Snapshotter = (*Counter)(nil)

// Counter implements Snapshotter with full coverage.
type Counter struct {
	total   int64
	dropped int64
	limit   int64 // written in Configure only — not tuple-path state
	cur     cursor
	//lint:allow snapshotcover per-call scratch; dead between calls
	scr scratch
}

// cursor is held by value and handed to the codec whole.
type cursor struct{ seen, late int64 }

func (c *cursor) get() (seen, late int64) { return c.seen, c.late }

func (c *cursor) set(seen, late int64) { c.seen, c.late = seen, late }

// scratch is written per batch and read by nobody afterwards.
type scratch struct{ buf []int64 }

// OnTupleBatch exercises the batch entry point.
func (c *Counter) OnTupleBatch(vs []int64) {
	c.scr.buf = append(c.scr.buf[:0], vs...)
	for _, v := range c.scr.buf {
		c.total += v
		c.cur.seen++
		if v < 0 {
			c.dropped++
			c.cur.late++
		}
	}
}

// Configure is not reachable from OnTuple/OnTupleBatch.
func (c *Counter) Configure(limit int64) { c.limit = limit }

// SnapshotState covers every tuple-path field.
func (c *Counter) SnapshotState() ([]byte, error) {
	dst := appendI64(nil, c.total)
	seen, late := c.cur.get()
	return appendI64(appendI64(appendI64(dst, c.dropped), seen), late), nil
}

// RestoreState writes every tuple-path field.
func (c *Counter) RestoreState(b []byte) error {
	c.total = readI64(b)
	c.dropped = readI64(b[8:])
	c.cur.set(readI64(b[16:]), readI64(b[24:]))
	return nil
}

// Scratch mutates per tuple but implements nothing — out of contract.
type Scratch struct{ n int64 }

// OnTuple mutates freely; Scratch is not a Snapshotter.
func (s *Scratch) OnTuple(v int64) { s.n += v }

func appendI64(dst []byte, v int64) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

func readI64(b []byte) int64 {
	var v int64
	for i := 0; i < 8 && i < len(b); i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}
