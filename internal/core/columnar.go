package core

import (
	"math"
	"slices"

	"spear/internal/col"
	"spear/internal/window"
)

// This file holds the ColumnManager entry points of the scalar and
// grouped managers. Both are adapters of the same shape to the manager's
// one ingest kernel (ScalarManager.ingestRun, GroupedManager.ingestRun),
// which its row entry points run too:
//
//  1. Eligibility gate, once per batch: the columnar lane applies only
//     to time-domain specs, requires the value field to project (and,
//     grouped, the key field), and checks the declared fields against
//     the extractors on the first row only (the tripwire: a wrong field
//     index or kind). Anything else falls back to OnTupleBatch over the
//     borrowed rows; past the gate the declaration is trusted.
//  2. Past the gate the batch's timestamp and value columns are the
//     kernel's input as they stand; what the row entry point would have
//     copied out of the rows is not copied.
//
// The kernel does the rest identically for both: window.Spec.EachRun
// cuts the positions into runs sharing one window assignment, the
// lifecycle admits or drops each run, and per (run, window) the samplers
// — on the scalar incremental path, per run the slice's accumulator —
// consume the raw value slice, each bit-identical by contract to a
// per-element Add loop, same PRNG draws included. Each window and slice
// sees its tuples in arrival order whichever entry point delivered
// them, so every value and every downstream accuracy decision (ε̂_w,
// accelerate-vs-exact Mode) is the same.

// OnColumnBatch implements ColumnManager for the scalar manager: past
// the gate, the batch's timestamp and value columns are the kernel's
// input as they stand.
func (m *ScalarManager) OnColumnBatch(cb *col.ColumnBatch) ([]Result, error) {
	if cb.Len() == 0 {
		return nil, nil
	}
	rows := cb.Rows()
	if !m.cfg.Columnar.Enabled || m.cfg.Spec.Domain == window.CountDomain {
		return m.OnTupleBatch(rows)
	}
	vals := cb.Floats(m.cfg.Columnar.ValueField)
	if vals == nil ||
		math.Float64bits(vals[0]) != math.Float64bits(m.cfg.Value(rows[0])) {
		return m.OnTupleBatch(rows)
	}
	m.syncControl()
	return m.ingestRun(cb.Ts(), vals, rows)
}

// OnColumnBatch implements ColumnManager for the grouped manager: past
// the gate the kernel reads the dictionary-coded key column in place of
// the rows' keys. Interning hashes each row's key once; each distinct
// code is resolved to its group id once (groupedScratch.codeIDs), and
// each window of a run indexes its state by row id, never by string.
func (m *GroupedManager) OnColumnBatch(cb *col.ColumnBatch) ([]Result, error) {
	if cb.Len() == 0 {
		return nil, nil
	}
	rows := cb.Rows()
	if !m.cfg.Columnar.Enabled || m.cfg.Spec.Domain == window.CountDomain {
		return m.OnTupleBatch(rows)
	}
	vals := cb.Floats(m.cfg.Columnar.ValueField)
	codes, dict, ok := cb.Strings(m.cfg.Columnar.KeyField)
	if vals == nil || !ok ||
		math.Float64bits(vals[0]) != math.Float64bits(m.cfg.Value(rows[0])) ||
		dict[codes[0]] != m.cfg.KeyBy(rows[0]) {
		return m.OnTupleBatch(rows)
	}
	m.syncControl()
	m.scr.codeIDs = slices.Grow(m.scr.codeIDs[:0], len(dict))[:len(dict)]
	return m.ingestRun(cb.Ts(), vals, rows, codes, dict)
}

// ensure interface compliance.
var (
	_ ColumnManager = (*ScalarManager)(nil)
	_ ColumnManager = (*GroupedManager)(nil)
)
