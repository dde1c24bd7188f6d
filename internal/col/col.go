// Package col is a pooled batch that borrows one run of rows. No engine
// path uses it. It stays because the frozen benchmark's layer probes
// compile against it (ROADMAP 3(e)): benchmark/layers/col times SetRows
// and ToRows as col.pivot and col.unpivot, and benchmark/layers/core
// hands a batch to core.ScalarManager.OnColumnBatch, which is
// OnTupleBatch over Rows.
//
// Ownership discipline. A ColumnBatch only borrows the row slice given
// to SetRows, until the next SetRows, Reset or Put. Batches come from a
// package-level pool (Get/Put).
package col

import (
	"slices"
	"sync"

	"spear/internal/tuple"
)

// ColumnBatch is a reusable view over one run of rows. Zero value is
// ready to use; prefer Get/Put for pooling.
type ColumnBatch struct {
	rows []tuple.Tuple // borrowed from SetRows; NOT owned
}

var pool = sync.Pool{New: func() any { return new(ColumnBatch) }}

// Get returns a pooled, reset ColumnBatch. The recycling path is
// lock-free: sync.Pool costs no mutex.
func Get() *ColumnBatch {
	return pool.Get().(*ColumnBatch)
}

// Put recycles a batch for reuse. Lock-free like Get; the batch drops
// its borrowed row slice so pooling never pins caller memory. The
// caller must not touch the batch after.
func Put(b *ColumnBatch) {
	b.Reset()
	pool.Put(b)
}

// Reset drops the borrowed rows.
func (b *ColumnBatch) Reset() { b.rows = nil }

// SetRows points the batch at rows. The slice is borrowed, not copied:
// it must stay immutable until the next SetRows, Reset, or Put.
func (b *ColumnBatch) SetRows(rows []tuple.Tuple) { b.rows = rows }

// Rows returns the rows SetRows borrowed.
func (b *ColumnBatch) Rows() []tuple.Tuple { return b.rows }

// ToRows appends a deep copy of the batch's rows to dst[:0] (reused if
// capacity allows) and returns it: equal timestamps and values, and Vals
// slices owned by the caller.
func (b *ColumnBatch) ToRows(dst []tuple.Tuple) []tuple.Tuple {
	dst = dst[:0]
	for _, r := range b.rows {
		dst = append(dst, tuple.Tuple{Ts: r.Ts, Vals: slices.Clone(r.Vals)})
	}
	return dst
}
