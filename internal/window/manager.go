package window

import (
	"slices"

	"spear/internal/tuple"
)

// Complete is a window a manager has closed and staged for processing.
type Complete struct {
	ID         ID
	Start, End int64 // [Start, End) in the spec's domain
	// Tuples is the window's full contents in arrival order.
	Tuples []tuple.Tuple
}

// SingleBuffer is the per-worker window lifecycle of §2 — buffer at
// arrival, stage complete windows at watermark arrival (trigger), discard
// fully processed tuples (evict) — for one executor goroutine, without
// locking. It is the Storm design of Figs. 3–4: every tuple is stored
// exactly once in one arrival-ordered buffer. At watermark arrival the
// buffer is scanned once to collect the completed window's tuples and to
// evict expired ones. Minimal memory per tuple, one scan per trigger.
// Like every manager here it keeps its tuples in memory: the only state
// SPEAr keeps in secondary storage S is the archive's (internal/core).
type SingleBuffer struct {
	spec     Spec
	buf      []tuple.Tuple
	bufBytes int
	peak     int
	lc       Lifecycle
	pos      []int64 // OnTupleBatch's positions: dead between calls
}

// NewSingleBuffer returns a single-buffer manager for spec.
func NewSingleBuffer(spec Spec) (*SingleBuffer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &SingleBuffer{spec: spec, lc: NewLifecycle(spec)}, nil
}

// OnTupleBatch buffers the rows the lifecycle admits, a run at a time
// as Spec.EachRun cuts them (the SPEAr kernel's arrival step), and in the
// count domain stages the windows each run completes: a count window
// [s, e) is complete once position e-1, the end of a run, has arrived. A
// tuple is buffered at its position, which in the count domain is its
// sequence number, not its event time.
func (m *SingleBuffer) OnTupleBatch(rows []tuple.Tuple) []Complete {
	m.pos = m.pos[:0]
	for i := range rows {
		m.pos = append(m.pos, m.lc.Pos(rows[i].Ts, i))
	}
	var out []Complete
	m.spec.EachRun(m.pos, func(i0, i1 int, lo, hi ID) {
		if _, ok := m.lc.Admit(m.pos[i0:i1], lo, hi); !ok {
			return
		}
		for i, t := range rows[i0:i1] {
			t.Ts = m.pos[i0+i]
			m.buf = append(m.buf, t)
			m.bufBytes += t.MemSize()
		}
		m.peak = max(m.peak, m.bufBytes)
		if m.spec.Domain == CountDomain {
			out = append(out, m.fire(m.lc.Seq())...)
		}
	})
	return out
}

// OnWatermark stages every window whose end is ≤ wm, oldest first, and
// evicts expired tuples. Count windows close on arrival instead.
func (m *SingleBuffer) OnWatermark(wm int64) []Complete {
	if m.spec.Domain == CountDomain {
		return nil // count windows close on arrival
	}
	return m.fire(wm)
}

// fire stages all windows with end ≤ wm and evicts expired tuples.
func (m *SingleBuffer) fire(wm int64) []Complete {
	first, last, ok := m.lc.Complete(wm)
	if !ok {
		return nil
	}

	var out []Complete
	for _, id := range m.heldIn(first, last) {
		start, end := m.spec.Bounds(id)
		// One scan gathers the window's tuples (Fig. 4, left).
		var ts []tuple.Tuple
		for _, t := range m.buf {
			if t.Ts >= start && t.Ts < end {
				ts = append(ts, t)
			}
		}
		out = append(out, Complete{ID: id, Start: start, End: end, Tuples: ts})
	}

	// Evict tuples that precede every still-active window (Fig. 4).
	evictBefore, _ := m.spec.Bounds(m.lc.NextOpen())
	kept := m.buf[:0]
	bytes := 0
	for _, t := range m.buf {
		if t.Ts >= evictBefore {
			kept = append(kept, t)
			bytes += t.MemSize()
		}
	}
	// Zero the tail so evicted tuples are collectable.
	for i := len(kept); i < len(m.buf); i++ {
		m.buf[i] = tuple.Tuple{}
	}
	m.buf = kept
	m.bufBytes = bytes
	return out
}

// heldIn returns, ascending, the ids in [first, last] of the windows
// that hold a buffered tuple: empty windows do not fire, and a fire that
// follows a gap in the stream must cost the tuples in the buffer, not
// gap ÷ slide. One pass; the assignment is recomputed only where it
// changes from one tuple to the next.
func (m *SingleBuffer) heldIn(first, last ID) []ID {
	var ids []ID
	var start, end int64 // positions sharing the previous tuple's windows
	for _, t := range m.buf {
		if t.Ts >= start && t.Ts < end {
			continue
		}
		lo, hi := m.spec.Assign(t.Ts)
		start, end = m.spec.Slice(lo, hi)
		for id := max(lo, first); id <= min(hi, last); id++ {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// MemUsage returns the buffered bytes (the paper's per-worker memory
// metric, Fig. 7).
func (m *SingleBuffer) MemUsage() int { return m.bufBytes }

// PeakMemUsage returns the high-water mark of MemUsage.
func (m *SingleBuffer) PeakMemUsage() int { return m.peak }

// LateDropped returns the number of tuples discarded because they
// arrived behind the last fired window.
func (m *SingleBuffer) LateDropped() int64 { return m.lc.Late() }

// MultiBuffer is the Flink design of Figs. 3–4: a copy of each tuple is
// stored in a dedicated buffer per window it participates in. Windows
// are ready without a scan at trigger time, at the cost of Overlap()
// copies of every tuple.
type MultiBuffer struct {
	spec     Spec
	bufs     map[ID][]tuple.Tuple
	bytes    map[ID]int
	bufBytes int
	peak     int
	lc       Lifecycle
}

// NewMultiBuffer returns a multiple-buffers manager for spec.
func NewMultiBuffer(spec Spec) (*MultiBuffer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &MultiBuffer{
		spec:  spec,
		bufs:  make(map[ID][]tuple.Tuple),
		bytes: make(map[ID]int),
		lc:    NewLifecycle(spec),
	}, nil
}

// OnTuple is SingleBuffer.OnTupleBatch over a run of one, with a copy
// per window: tuple at a time, the reference the run path is held to.
func (m *MultiBuffer) OnTuple(t tuple.Tuple) []Complete {
	t.Ts = m.lc.Pos(t.Ts, 0)
	lo, hi := m.spec.Assign(t.Ts)
	first, ok := m.lc.Admit([]int64{t.Ts}, lo, hi)
	if !ok {
		return nil
	}
	sz := t.MemSize()
	for id := first; id <= hi; id++ {
		m.bufs[id] = append(m.bufs[id], t)
		m.bytes[id] += sz
		m.bufBytes += sz
	}
	if m.bufBytes > m.peak {
		m.peak = m.bufBytes
	}
	if m.spec.Domain == CountDomain {
		return m.fire(m.lc.Seq())
	}
	return nil
}

// OnWatermark is SingleBuffer.OnWatermark.
func (m *MultiBuffer) OnWatermark(wm int64) []Complete {
	if m.spec.Domain == CountDomain {
		return nil
	}
	return m.fire(wm)
}

func (m *MultiBuffer) fire(wm int64) []Complete {
	first, last, ok := m.lc.Complete(wm)
	if !ok {
		return nil
	}
	var out []Complete
	for _, id := range IDsIn(m.bufs, first, last) {
		start, end := m.spec.Bounds(id)
		// The buffer is picked and staged directly — no scan
		// (Fig. 4, right).
		if len(m.bufs[id]) > 0 {
			out = append(out, Complete{
				ID: id, Start: start, End: end, Tuples: m.bufs[id],
			})
		}
		m.bufBytes -= m.bytes[id]
		delete(m.bufs, id)
		delete(m.bytes, id)
	}
	return out
}

// MemUsage is SingleBuffer.MemUsage.
func (m *MultiBuffer) MemUsage() int { return m.bufBytes }

// PeakMemUsage is SingleBuffer.PeakMemUsage.
func (m *MultiBuffer) PeakMemUsage() int { return m.peak }

// LateDropped is SingleBuffer.LateDropped.
func (m *MultiBuffer) LateDropped() int64 { return m.lc.Late() }
