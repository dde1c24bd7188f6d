// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§5). Each experiment builds the
// corresponding continuous queries, runs them through the engine on the
// synthetic datasets, and prints rows mirroring what the paper reports.
package bench

import (
	"fmt"
	"time"

	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/sketch"
	"spear/internal/tuple"
	"spear/internal/window"
)

// CountMinManager is the Table 2 baseline: Storm's single-buffer window
// lifecycle with the grouped mean computed by feeding the staged window
// through a CountMin pair (value sums + frequencies) and reconstructing
// per-group estimates — StreamLib-style. Every tuple pays 2·depth hash
// evaluations at window processing time, the overhead the paper
// attributes to "the computation-heavy hash functions required by
// CountMin".
type CountMinManager struct {
	buf   *window.SingleBuffer
	sk    *sketch.GroupedMeanSketch
	keyBy tuple.KeyExtractor
	value tuple.Extractor
	met   *obs.Worker
	now   func() time.Time
}

// NewCountMinManager builds the baseline for a grouped mean CQ with the
// sketch sized for (eps, delta) — matched to SPEAr's (ε, 1−α).
func NewCountMinManager(spec window.Spec, keyBy tuple.KeyExtractor, value tuple.Extractor,
	eps, delta float64, met *obs.Worker) (*CountMinManager, error) {
	if keyBy == nil || value == nil {
		return nil, fmt.Errorf("bench: CountMin baseline needs key and value extractors")
	}
	buf, err := window.NewSingleBuffer(spec)
	if err != nil {
		return nil, err
	}
	return &CountMinManager{
		buf:   buf,
		sk:    sketch.NewGroupedMeanSketch(eps, delta),
		keyBy: keyBy,
		value: value,
		met:   met,
		now:   time.Now,
	}, nil
}

// OnTupleBatch implements core.Manager: the buffer takes the rows a run
// at a time, and the ingest is booked as every core manager books it
// (TuplesIn + LateDropped = delivered).
func (m *CountMinManager) OnTupleBatch(rows []tuple.Tuple) ([]core.Result, error) {
	late0 := m.buf.LateDropped()
	completes := m.buf.OnTupleBatch(rows)
	late := m.buf.LateDropped() - late0
	m.met.LateDropped.Add(late)
	m.met.TuplesIn.Add(int64(len(rows)) - late)
	m.met.MemBytes.Set(int64(m.MemUsage()))
	return m.produceAll(completes, 0), nil
}

// OnWatermark implements core.Manager.
func (m *CountMinManager) OnWatermark(wm int64) ([]core.Result, error) {
	t0 := m.now()
	completes := m.buf.OnWatermark(wm)
	if len(completes) == 0 {
		return nil, nil
	}
	scanShare := m.now().Sub(t0) / time.Duration(len(completes))
	return m.produceAll(completes, scanShare), nil
}

func (m *CountMinManager) produceAll(completes []window.Complete, scanShare time.Duration) []core.Result {
	out := make([]core.Result, 0, len(completes))
	for _, c := range completes {
		t0 := m.now()
		m.sk.Reset()
		for _, t := range c.Tuples {
			m.sk.Add(m.keyBy(t), m.value(t))
		}
		res := core.Result{
			WindowID: c.ID, Start: c.Start, End: c.End,
			N: int64(len(c.Tuples)), SampleN: len(c.Tuples),
			Mode:   core.ModeExact, // a sketch is not SPEAr acceleration
			Groups: m.sk.Result(),
		}
		m.met.ProcTime.ObserveDuration(m.now().Sub(t0) + scanShare)
		m.met.WindowsTotal.Add(1)
		m.met.WindowsExact.Add(1)
		m.met.TuplesProcessedFull.Add(int64(len(c.Tuples)))
		out = append(out, res)
	}
	return out
}

// MemUsage returns the bytes Metrics.MemBytes reports: buffer plus
// sketch plus group set.
func (m *CountMinManager) MemUsage() int { return m.buf.MemUsage() + m.sk.MemSize() }

var _ core.Manager = (*CountMinManager)(nil)
