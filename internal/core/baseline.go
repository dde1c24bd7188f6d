package core

import (
	"fmt"
	"time"

	"spear/internal/agg"
	"spear/internal/tuple"
	"spear/internal/window"
)

// ExactManager is the conventional-SPE baseline ("Storm" in the
// figures): the single-buffer design with full exact processing of every
// window. It shares the Result accounting with the SPEAr managers so
// comparisons use identical instrumentation.
type ExactManager struct {
	cfg Config
	buf *window.SingleBuffer
	now func() time.Time
}

// NewExactManager returns the exact baseline for cfg. Epsilon,
// Confidence, and BudgetTuples are accepted (the shared Config carries
// them) but ignored, and Store is never called: the baseline keeps its
// windows in memory.
func NewExactManager(cfg Config) (*ExactManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	buf, err := window.NewSingleBuffer(cfg.Spec)
	if err != nil {
		return nil, err
	}
	return &ExactManager{cfg: cfg, buf: buf, now: cfg.clock()}, nil
}

// OnTupleBatch implements Manager: the buffer takes the rows a run at a
// time (SingleBuffer.OnTupleBatch), and the ingest is booked once.
func (m *ExactManager) OnTupleBatch(rows []tuple.Tuple) ([]Result, error) {
	late0 := m.buf.LateDropped()
	completes := m.buf.OnTupleBatch(rows)
	if m.cfg.countIngest(len(rows), m.buf.LateDropped()-late0) {
		m.cfg.Metrics.MemBytes.Set(int64(m.buf.MemUsage()))
	}
	return m.produceAll(completes, 0), nil
}

// OnWatermark implements Manager.
func (m *ExactManager) OnWatermark(wm int64) ([]Result, error) {
	t0 := m.now()
	completes := m.buf.OnWatermark(wm)
	if len(completes) == 0 {
		return nil, nil
	}
	scanShare := m.now().Sub(t0) / time.Duration(len(completes))
	m.cfg.Metrics.MemBytes.Set(int64(m.buf.MemUsage()))
	return m.produceAll(completes, scanShare), nil
}

func (m *ExactManager) produceAll(completes []window.Complete, scanShare time.Duration) []Result {
	if len(completes) == 0 {
		return nil
	}
	out := make([]Result, 0, len(completes))
	for _, c := range completes {
		t0 := m.now()
		res := Result{
			WindowID: c.ID, Start: c.Start, End: c.End,
			N: int64(len(c.Tuples)), SampleN: len(c.Tuples),
			Mode: ModeExact,
		}
		if m.cfg.KeyBy != nil {
			keys := make([]string, len(c.Tuples))
			vals := make([]float64, len(c.Tuples))
			for i, t := range c.Tuples {
				keys[i] = m.cfg.KeyBy(t)
				vals[i] = m.cfg.Value(t)
			}
			res.Groups = agg.ComputeGrouped(keys, vals, m.cfg.Agg)
		} else {
			vals := make([]float64, len(c.Tuples))
			for i, t := range c.Tuples {
				vals[i] = m.cfg.Value(t)
			}
			res.Scalar = m.cfg.Agg.Compute(vals)
		}
		m.cfg.countFire(&res, m.now().Sub(t0)+scanShare)
		out = append(out, res)
	}
	return out
}

// IncrementalManager is the Inc-Storm baseline of Fig. 8a: the engine
// modified to maintain a non-holistic scalar aggregate incrementally at
// tuple arrival, producing each window result with O(1) work at
// watermark arrival ("this is the optimal way for a mean"). It rejects
// holistic and grouped operations, exactly the limitation the paper
// ascribes to incremental techniques (fails R4).
type IncrementalManager struct {
	cfg Config

	wins map[window.ID]*agg.Incremental
	lc   window.Lifecycle
	cols rowColumns
	now  func() time.Time
}

// NewIncrementalManager returns the incremental baseline for cfg.
func NewIncrementalManager(cfg Config) (*IncrementalManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.KeyBy != nil {
		return nil, fmt.Errorf("core: incremental baseline does not support grouped operations")
	}
	if cfg.Agg.Holistic() {
		return nil, fmt.Errorf("core: %s cannot be processed incrementally", cfg.Agg)
	}
	return &IncrementalManager{cfg: cfg, wins: make(map[window.ID]*agg.Incremental), lc: window.NewLifecycle(cfg.Spec), now: cfg.clock()}, nil
}

// OnTupleBatch implements Manager with the SPEAr kernel's arrival step
// (shell.ingestRun): an admitted run is folded into the accumulator of
// every window it falls into, each window seeing its values in arrival
// order wherever the rows were cut. A count window completes at the end
// of a run.
func (m *IncrementalManager) OnTupleBatch(rows []tuple.Tuple) ([]Result, error) {
	m.cols.read(rows, &m.lc, m.cfg.Value)
	var out []Result
	late0 := m.lc.Late()
	m.cfg.Spec.EachRun(m.cols.pos, func(i0, i1 int, lo, hi window.ID) {
		first, ok := m.lc.Admit(m.cols.pos[i0:i1], lo, hi)
		if !ok {
			return
		}
		for id := first; id <= hi; id++ {
			inc, ok := m.wins[id]
			if !ok {
				inc, _ = agg.NewIncremental(m.cfg.Agg)
				m.wins[id] = inc
			}
			for _, v := range m.cols.vals[i0:i1] {
				inc.Add(v)
			}
		}
		if m.cfg.Spec.Domain == window.CountDomain {
			out = append(out, m.fire(m.lc.Seq())...)
		}
	})
	if m.cfg.countIngest(len(rows), m.lc.Late()-late0) {
		// What result production holds: an accumulator per open window.
		m.cfg.Metrics.MemBytes.Set(int64(len(m.wins) * 56))
	}
	return out, nil
}

// OnWatermark implements Manager.
func (m *IncrementalManager) OnWatermark(wm int64) ([]Result, error) {
	if m.cfg.Spec.Domain == window.CountDomain {
		return nil, nil
	}
	return m.fire(wm), nil
}

func (m *IncrementalManager) fire(wm int64) []Result {
	first, last, ok := m.lc.Complete(wm)
	if !ok {
		return nil
	}
	var out []Result
	for _, id := range window.IDsIn(m.wins, first, last) {
		inc := m.wins[id]
		t0 := m.now()
		start, end := m.cfg.Spec.Bounds(id)
		res := Result{
			WindowID: id, Start: start, End: end,
			N: inc.Count(), SampleN: int(inc.Count()),
			Mode:   ModeIncremental,
			Scalar: inc.Result(),
		}
		delete(m.wins, id)
		m.cfg.countFire(&res, m.now().Sub(t0))
		out = append(out, res)
	}
	return out
}

var (
	_ Manager = (*ExactManager)(nil)
	_ Manager = (*IncrementalManager)(nil)
)
