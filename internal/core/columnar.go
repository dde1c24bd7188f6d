package core

import (
	"math"
	"slices"

	"spear/internal/col"
	"spear/internal/window"
)

// This file holds the ColumnManager entry points of the scalar and
// grouped managers. Both follow the same shape:
//
//  1. Eligibility gate, once per batch: the columnar lane applies only
//     to time-domain specs, requires a dense row-aligned value column,
//     and verifies the declared field projections against the first row
//     (the tripwire: Config.Value must equal
//     FieldFloat(Columnar.ValueField) bit-for-bit). Anything else falls
//     back to OnTupleBatch over the borrowed rows — correctness never
//     depends on the declaration.
//  2. window.Spec.EachRun segments the batch's positions into runs
//     sharing one window assignment, so the assignment arithmetic,
//     lateness check, window map lookups and the archive append are
//     paid per run, not per tuple (a tumbling window sees one run per
//     batch in steady state).
//  3. Per (run, window) the samplers consume the raw value slice, each
//     bit-identical by contract to a per-element Add loop, same PRNG
//     draws included. Each window sees its tuples in arrival order
//     exactly as the row path does, so every downstream accuracy
//     decision (ε̂_w, accelerate-vs-exact Mode) is unchanged.
//
// For the scalar manager steps 2 and 3 are ScalarManager.ingestRun, the
// kernel its row entry points run too; the grouped manager's column
// kernel is below.

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

// OnColumnBatch implements ColumnManager for the grouped manager's
// arrival-sampled path (known groups): per-group frequency/variance and
// stratified reservoirs fed from the raw value column and the
// dictionary-coded key column. Each distinct code of the batch is
// resolved to its group id once (codeIDs), and each window of a run then
// indexes its state by row id — no string is hashed per row, let alone
// per row per window. The buffered path (unknown groups) and
// count-domain specs fall back to the row path.
func (m *GroupedManager) OnColumnBatch(cb *col.ColumnBatch) ([]Result, error) {
	n := cb.Len()
	if n == 0 {
		return nil, nil
	}
	m.syncControl()
	rows := cb.Rows()
	if !m.cfg.Columnar.Enabled || m.arc == nil || m.cfg.Spec.Domain == window.CountDomain {
		return m.OnTupleBatch(rows)
	}
	vals := cb.Floats(m.cfg.Columnar.ValueField)
	codes, dict, ok := cb.Strings(m.cfg.Columnar.KeyField)
	if vals == nil || !ok ||
		math.Float64bits(vals[0]) != math.Float64bits(m.cfg.Value(rows[0])) ||
		dict[codes[0]] != m.cfg.KeyBy(rows[0]) {
		return m.OnTupleBatch(rows)
	}
	ts := cb.Ts()

	if m.seq == 0 {
		m.maxPos = ts[0]
	}
	m.seq += int64(n)
	for _, p := range ts {
		if p > m.maxPos {
			m.maxPos = p
		}
	}

	m.codeIDs = slices.Grow(m.codeIDs[:0], len(dict))[:len(dict)]
	m.rowIDs = slices.Grow(m.rowIDs[:0], n)[:n]
	m.mapped = m.mapped[:0]
	var archiveErr error
	m.cfg.Spec.EachRun(ts, func(i0, i1 int, lo, hi window.ID) {
		if archiveErr != nil {
			return
		}
		if !m.started {
			m.started = true
			m.nextFire = lo
		} else if lo < m.nextFire && !m.fired {
			// Pre-first-fire anchor lowering, mirroring the row path
			// (see GroupedManager.ingest) so both stay bit-identical.
			m.nextFire = lo
		}
		if hi >= m.nextFire {
			if lo < m.nextFire {
				lo = m.nextFire
			}
			// codeIDs holds id+1, zero for a code not met yet. Late
			// runs never get here, so every id assigned is used.
			ids := m.rowIDs[i0:i1]
			for i, c := range codes[i0:i1] {
				if m.codeIDs[c] == 0 {
					m.codeIDs[c] = m.dict.ID(dict[c]) + 1
					m.mapped = append(m.mapped, c)
				}
				ids[i] = m.codeIDs[c] - 1
			}
			for id := lo; id <= hi; id++ {
				w := m.win(id) // once per run: the map will do
				for i, gid := range ids {
					w.gs.AddID(gid, vals[i0+i])
				}
				if w.known != nil {
					for i, gid := range ids {
						w.known.AddID(gid, vals[i0+i])
					}
				}
				if m.shed {
					w.tainted = true
				}
			}
		} else {
			m.late += int64(i1 - i0)
			if m.cfg.Metrics != nil {
				m.cfg.Metrics.LateDropped.Add(int64(i1 - i0))
			}
		}
		// The grouped archive keeps late tuples too (they are dropped
		// from results, not from S) — same as the per-tuple path.
		if m.shed {
			m.sheds += int64(i1 - i0)
			if m.cfg.Metrics != nil {
				m.cfg.Metrics.TuplesShed.Add(int64(i1 - i0))
			}
			return
		}
		for i := i0; i < i1; i++ {
			if err := m.arc.add(rows[i]); err != nil {
				archiveErr = err
				return
			}
		}
	})
	for _, c := range m.mapped {
		m.codeIDs[c] = 0 // all zero again for the next batch
	}
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.TuplesIn.Add(int64(n))
		m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	}
	return nil, archiveErr
}

// ensure interface compliance.
var (
	_ ColumnManager = (*ScalarManager)(nil)
	_ ColumnManager = (*GroupedManager)(nil)
)
