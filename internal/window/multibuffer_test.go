package window

import (
	"slices"

	"spear/internal/tuple"
)

// This file holds the Flink design of Figs. 3–4, which no program runs:
// the reference the Storm manager's windows are held to (storm_test.go).

// Complete is a window MultiBuffer has closed and staged for processing.
type Complete struct {
	ID         ID
	Start, End int64 // [Start, End) in the spec's domain
	// Tuples is the window's full contents in arrival order.
	Tuples []tuple.Tuple
}

// MultiBuffer is the Flink design of Figs. 3–4: a copy of each tuple is
// stored in a dedicated buffer per window it participates in. Windows
// are ready without a scan at trigger time, at the cost of Overlap()
// copies of every tuple. The Storm design it is compared with, one
// buffer scanned at the trigger, is the exact baseline's shape
// (core.ExactManager); the tests hold the two to the same windows.
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

// OnTuple buffers a tuple at its position, a copy per window it is
// admitted to, and in the count domain stages the windows it completes:
// tuple at a time, the reference the Storm manager's runs are held to.
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

// OnWatermark stages every window whose end is ≤ wm, oldest first.
// Count windows close on arrival instead.
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

// MemUsage returns the buffered bytes, every copy counted.
func (m *MultiBuffer) MemUsage() int { return m.bufBytes }

// PeakMemUsage returns the high-water mark of MemUsage.
func (m *MultiBuffer) PeakMemUsage() int { return m.peak }

// LateDropped returns the number of tuples discarded because they
// arrived behind the last fired window.
func (m *MultiBuffer) LateDropped() int64 { return m.lc.Late() }

// IDsIn returns the keys of m within [from, to] in ascending order, so
// that a watermark after a gap in the stream fires the windows that
// exist instead of gap ÷ slide.
func IDsIn[K ~int64, W any](m map[K]W, from, to K) []K {
	var ids []K
	for id := range m {
		if id >= from && id <= to {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}
