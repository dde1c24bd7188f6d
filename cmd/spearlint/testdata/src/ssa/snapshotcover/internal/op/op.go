// Package op is the snapshotcover positive fixture: an operator whose
// checkpoint codec misses tuple-path state in every way the analyzer
// distinguishes — a field absent from both codec halves, a field the
// restore half covers but the snapshot half drops, an intentional
// exemption carrying an allow directive, and a field of a struct held
// by value, which is the holder's state like any field of its own.
package op

import "fixture.example/snapshotcover/internal/checkpoint"

var _ checkpoint.Snapshotter = (*Counter)(nil)

// Counter implements Snapshotter with deliberate coverage holes.
type Counter struct {
	total   int64
	dropped int64           // want "never read by (*Counter).SnapshotState" "never written by (*Counter).RestoreState"
	memo    map[int64]int64 // want "never read by (*Counter).SnapshotState"
	cur     cursor
	cache   int64 //lint:allow snapshotcover derived cache; rebuilt on demand after restore
}

// cursor is held by value: the codec hands it over through get and set,
// and set forgets one of the two.
type cursor struct {
	seen int64
	late int64 // want "field Counter.cur.late is mutated on the tuple path (e.g. op.go:32) but never written by (*Counter).RestoreState"
}

func (c *cursor) admit(v int64) {
	c.seen++
	if v < 0 {
		c.late++
	}
}

func (c *cursor) get() (seen, late int64) { return c.seen, c.late }

func (c *cursor) set(seen, _ int64) { c.seen = seen }

// OnTuple mutates state directly, through a helper (call-graph edge),
// and on a spawned goroutine (followed: a write is a write regardless
// of which goroutine performs it).
func (c *Counter) OnTuple(v int64) {
	c.bump(v)
	c.cur.admit(v)
	c.dropped++
	go func() { c.memo[v]++ }()
	c.cache = v
}

func (c *Counter) bump(v int64) { c.total += v }

// SnapshotState covers total and the cursor.
func (c *Counter) SnapshotState() ([]byte, error) {
	seen, late := c.cur.get()
	return appendI64(appendI64(appendI64(nil, c.total), seen), late), nil
}

// RestoreState covers total and resets memo, but never touches dropped
// or cache, and restores the cursor short of one field.
func (c *Counter) RestoreState(b []byte) error {
	c.total = readI64(b)
	c.memo = make(map[int64]int64)
	c.cur.set(readI64(b[8:]), readI64(b[16:]))
	return nil
}

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
