package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"spear/internal/agg"
	"spear/internal/sketch"
	"spear/internal/tuple"
	"spear/internal/window"
)

// baselineShell returns the shell of a baseline: the host SPE's window
// lifecycle holding a buffer (Storm, CountMin) or an accumulator per
// window (Inc-Storm). It holds no accuracy contract, budget or
// controller, so its results echo none, and it never archives,
// DisableIncremental or not: Store is never called.
func baselineShell(cfg Config, sh shape) shell {
	cfg.Epsilon, cfg.Confidence, cfg.BudgetTuples, cfg.Cell = 0, 0, 0, nil
	return newShell(cfg, sh, false)
}

// ExactManager is the conventional-SPE baseline ("Storm" in the
// figures): the single-buffer design of Figs. 3–4, every admitted tuple
// stored once in one arrival-ordered buffer and every window processed
// whole from it. With a sketch it is Table 2's CountMin baseline.
type ExactManager struct {
	shell
	buf      []tuple.Tuple // admitted tuples in arrival order, Ts their position
	bufBytes int
	staged   map[window.ID][]tuple.Tuple // the windows the fire under way answers
	sk       *sketch.GroupedMeanSketch   // nil but for CountMin
}

// NewExactManager returns the Storm baseline for cfg.
func NewExactManager(cfg Config) (*ExactManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &ExactManager{staged: make(map[window.ID][]tuple.Tuple)}
	m.shell = baselineShell(cfg, m)
	return m, nil
}

// NewCountMinManager returns the Table 2 baseline for a grouped mean:
// each window Storm stages is fed through a CountMin pair (value sums
// and frequencies) sized for (Epsilon, 1 − Confidence), StreamLib-style,
// 2·depth hashes a tuple. Its results are ModeExact: a sketch is not
// SPEAr acceleration.
func NewCountMinManager(cfg Config) (*ExactManager, error) {
	if cfg.KeyBy == nil {
		return nil, errors.New("core: CountMin baseline needs a key extractor")
	}
	m, err := NewExactManager(cfg)
	if err != nil {
		return nil, err
	}
	m.sk = sketch.NewGroupedMeanSketch(cfg.Epsilon, 1-cfg.Confidence)
	return m, nil
}

// fold buffers an admitted run, each tuple at its position: in the count
// domain its sequence number, not its event time.
func (m *ExactManager) fold(r run) {
	for i, t := range r.rows {
		t.Ts = r.ts[i]
		m.buf = append(m.buf, t)
		m.bufBytes += t.MemSize()
	}
}

// held is the trigger's work, timed: the windows in [first, last] that
// hold a buffered tuple, derived in one pass (so a fire after a gap costs
// the tuples buffered, not gap ÷ slide), each staged by one scan of the
// buffer (Fig. 4, left), then the eviction of what no open window holds.
func (m *ExactManager) held(first, last window.ID) ([]window.ID, time.Duration) {
	t0 := m.now()
	var ids []window.ID
	var start, end int64 // positions sharing the previous tuple's windows
	for _, t := range m.buf {
		if t.Ts >= start && t.Ts < end {
			continue
		}
		lo, hi := m.cfg.Spec.Assign(t.Ts)
		start, end = m.cfg.Spec.Slice(lo, hi)
		for id := max(lo, first); id <= min(hi, last); id++ {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for _, id := range ids {
		start, end := m.cfg.Spec.Bounds(id)
		var ts []tuple.Tuple
		for _, t := range m.buf {
			if t.Ts >= start && t.Ts < end {
				ts = append(ts, t)
			}
		}
		m.staged[id] = ts
	}
	evictBefore, _ := m.cfg.Spec.Bounds(m.lc.NextOpen())
	m.buf = slices.DeleteFunc(m.buf, func(t tuple.Tuple) bool { // zeroes the tail: evicted tuples are collectable
		if t.Ts >= evictBefore {
			return false
		}
		m.bufBytes -= t.MemSize()
		return true
	})
	return ids, m.now().Sub(t0)
}

// produce evaluates window id from its staged tuples: the aggregate of
// their values, per group where grouped, or the sketch's estimates.
func (m *ExactManager) produce(id window.ID, res *Result) error {
	rows := m.staged[id]
	res.Mode, res.N, res.SampleN = ModeExact, int64(len(rows)), len(rows)
	switch {
	case m.sk != nil:
		m.sk.Reset()
		for _, t := range rows {
			m.sk.Add(m.cfg.KeyBy(t), m.cfg.Value(t))
		}
		res.Groups = m.sk.Result()
	case m.cfg.KeyBy != nil:
		keys, vals := m.columns(rows)
		res.Groups = agg.ComputeGrouped(keys, vals, m.cfg.Agg)
	default:
		res.Scalar = m.cfg.Agg.Compute(m.values(rows))
	}
	return nil
}

func (m *ExactManager) close(res Result) { delete(m.staged, res.WindowID) }
func (m *ExactManager) resize()          {}
func (m *ExactManager) capacity() int    { return 0 }

// BudgetMemUsage is what Metrics.MemBytes reports: the buffered bytes
// (the paper's per-worker memory metric, Fig. 7), and CountMin's sketch.
func (m *ExactManager) BudgetMemUsage() int {
	if m.sk != nil {
		return m.bufBytes + m.sk.MemSize()
	}
	return m.bufBytes
}

// KeepsRows is true: the buffer holds the rows it was handed until it evicts them.
func (m *ExactManager) KeepsRows() bool { return true }

// IncrementalManager is the Inc-Storm baseline of Fig. 8a: the engine
// modified to maintain a non-holistic scalar aggregate incrementally at
// tuple arrival, producing each window result with O(1) work at
// watermark arrival ("this is the optimal way for a mean"). It rejects
// holistic and grouped operations, exactly the limitation the paper
// ascribes to incremental techniques (fails R4).
type IncrementalManager struct {
	shell
	wins map[window.ID]*agg.Incremental
}

// NewIncrementalManager returns the incremental baseline for cfg.
func NewIncrementalManager(cfg Config) (*IncrementalManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.KeyBy != nil {
		return nil, errors.New("core: incremental baseline does not support grouped operations")
	}
	if cfg.Agg.Holistic() {
		return nil, fmt.Errorf("core: %s cannot be processed incrementally", cfg.Agg)
	}
	m := &IncrementalManager{wins: make(map[window.ID]*agg.Incremental)}
	m.shell = baselineShell(cfg, m)
	return m, nil
}

// fold adds an admitted run to the accumulator of every window it falls
// into, in arrival order.
func (m *IncrementalManager) fold(r run) {
	for id := r.first; id <= r.hi; id++ {
		inc, ok := m.wins[id]
		if !ok {
			inc, _ = agg.NewIncremental(m.cfg.Agg)
			m.wins[id] = inc
		}
		for _, v := range r.vals {
			inc.Add(v)
		}
	}
}

func (m *IncrementalManager) held(first, last window.ID) ([]window.ID, time.Duration) {
	return window.IDsIn(m.wins, first, last), 0
}

// produce finalizes window id's accumulator.
func (m *IncrementalManager) produce(id window.ID, res *Result) error {
	inc := m.wins[id]
	res.Mode, res.N, res.SampleN, res.Scalar = ModeIncremental, inc.Count(), int(inc.Count()), inc.Result()
	return nil
}

func (m *IncrementalManager) close(res Result) { delete(m.wins, res.WindowID) }
func (m *IncrementalManager) resize()          {}
func (m *IncrementalManager) capacity() int    { return 0 }

// BudgetMemUsage is what result production holds: an accumulator per
// open window.
func (m *IncrementalManager) BudgetMemUsage() int { return len(m.wins) * 56 }
