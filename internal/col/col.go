// Package col is the columnar view a window worker hands its manager's
// kernel: one borrowed run of rows plus the timestamps and the value
// column the kernel asks for, built on demand as plain slices
// ([]int64, []float64) so aggregate kernels and samplers run tight
// loops instead of tag-dispatching over boxed tuple.Value unions.
//
// The view is strictly internal to a worker's ingest hop: rows enter
// through SetRows, kernels read Ts and Floats, and the same borrowed
// rows (Rows) remain what the row-oriented seams read — archiving,
// spilling, and any operator without a columnar kernel. The public API,
// tuple codec, spill store, and wire format never see a ColumnBatch.
//
// A column is projected only when it is row-aligned: every row's field
// is present, valid and of one kind the accessor serves. Anything else
// (a missing field, an invalid value, a kind that changes between rows)
// makes the accessor return nil and the kernel fall back to the rows.
//
// Ownership discipline. A ColumnBatch only borrows the row slice given
// to SetRows; everything it hands out (timestamps, projected columns)
// is owned by the batch and valid ONLY until the next SetRows, Reset,
// or Put, and a projection until the next call of the same accessor.
// Kernels must not retain references across batches.
// Batches come from a package-level pool (Get/Put) so steady-state
// ingest reuses one batch's buffers for the whole run.
package col

import (
	"slices"
	"sync"

	"spear/internal/tuple"
)

// ColumnBatch is a reusable columnar view over one run of rows. Zero
// value is ready to use; prefer Get/Put for pooling.
type ColumnBatch struct {
	rows []tuple.Tuple // borrowed from SetRows; NOT owned
	ts   []int64
	f64  []float64 // Floats' projection
}

var pool = sync.Pool{New: func() any { return new(ColumnBatch) }}

// Get returns a pooled, reset ColumnBatch. The recycling path is
// lock-free: sync.Pool costs no mutex on the per-batch ingest path.
func Get() *ColumnBatch {
	return pool.Get().(*ColumnBatch)
}

// Put recycles a batch for reuse. Lock-free like Get; the batch drops
// its borrowed row slice so pooling never pins caller memory. The
// caller must not touch the batch (or anything it handed out) after.
func Put(b *ColumnBatch) {
	b.Reset()
	pool.Put(b)
}

// Reset clears the batch for reuse, keeping buffer capacity. Lock-free:
// safe on the per-batch ingest path.
func (b *ColumnBatch) Reset() {
	b.rows = nil
	b.ts = b.ts[:0]
	b.f64 = b.f64[:0]
}

// SetRows points the batch at rows and fills Ts. The slice is borrowed,
// not copied: it must stay immutable until the next SetRows, Reset, or
// Put. Lock-free: one pass of slice appends, no locks, no channels.
func (b *ColumnBatch) SetRows(rows []tuple.Tuple) {
	b.Reset()
	b.rows = rows
	for i := range rows {
		b.ts = append(b.ts, rows[i].Ts)
	}
}

// Len returns the number of rows in the batch.
func (b *ColumnBatch) Len() int { return len(b.rows) }

// Ts returns the per-row event timestamps, in row order.
func (b *ColumnBatch) Ts() []int64 { return b.ts }

// Rows returns the rows SetRows borrowed: the fallback for operators
// without a columnar kernel.
func (b *ColumnBatch) Rows() []tuple.Tuple { return b.rows }

// field returns row i's field j and its kind, KindInvalid when the row
// has no field j.
func (b *ColumnBatch) field(i, j int) (tuple.Value, tuple.Kind) {
	vals := b.rows[i].Vals
	if j < 0 || j >= len(vals) {
		return tuple.Value{}, tuple.KindInvalid
	}
	return vals[j], vals[j].Kind()
}

// Floats projects field j as a dense row-aligned []float64, or returns
// nil unless every row's field j is a valid Float, or every row's field
// j a valid Int. An Int is widened through tuple.Value.AsFloat, so
// kernels consuming the slice are bit-identical to the row path.
func (b *ColumnBatch) Floats(j int) []float64 {
	if len(b.rows) == 0 {
		return nil
	}
	_, kind := b.field(0, j)
	if kind != tuple.KindFloat && kind != tuple.KindInt {
		return nil
	}
	b.f64 = b.f64[:0]
	for i := range b.rows {
		v, k := b.field(i, j)
		if k != kind {
			return nil
		}
		b.f64 = append(b.f64, v.AsFloat())
	}
	return b.f64
}

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
