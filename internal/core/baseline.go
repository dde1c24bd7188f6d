package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"spear/internal/sketch"
	"spear/internal/stats"
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
	sk       *sketch.GroupedMeanSketch // nil but for CountMin

	// The fire under way: the windows it answers, ascending, their
	// tuples back to back in the shell's stage, ids[i]'s ending at
	// ends[i].
	ids  []window.ID
	ends []int
}

// NewExactManager returns the Storm baseline for cfg.
func NewExactManager(cfg Config) (*ExactManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &ExactManager{}
	m.shell = baselineShell(cfg, m)
	m.cols.value = nil // fold buffers the rows; the fire reads their values
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
	m.sk = sketch.NewGroupedMeanSketch(cfg.Epsilon, 1-cfg.Confidence, cfg.Seed)
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
	m.ids, m.ends = m.ids[:0], m.ends[:0]
	var start, end int64 // positions sharing the previous tuple's windows
	for _, t := range m.buf {
		if t.Ts >= start && t.Ts < end {
			continue
		}
		lo, hi := m.cfg.Spec.Assign(t.Ts)
		start, end = m.cfg.Spec.Slice(lo, hi)
		for id := max(lo, first); id <= min(hi, last); id++ {
			m.ids = append(m.ids, id)
		}
	}
	slices.Sort(m.ids)
	m.ids = slices.Compact(m.ids)
	for _, id := range m.ids {
		start, end := m.cfg.Spec.Bounds(id)
		for _, t := range m.buf {
			if t.Ts >= start && t.Ts < end {
				m.stage = append(m.stage, t)
			}
		}
		m.ends = append(m.ends, len(m.stage))
	}
	evictBefore, _ := m.cfg.Spec.Bounds(m.lc.NextOpen())
	m.buf = slices.DeleteFunc(m.buf, func(t tuple.Tuple) bool { // zeroes the tail: evicted tuples are collectable
		if t.Ts >= evictBefore {
			return false
		}
		m.bufBytes -= t.MemSize()
		return true
	})
	return m.ids, m.now().Sub(t0)
}

// produce answers window id from its staged tuples: through the shell's
// exact evaluator, or CountMin's sketch.
func (m *ExactManager) produce(id window.ID, res *Result) error {
	i, _ := slices.BinarySearch(m.ids, id)
	from := 0
	if i > 0 {
		from = m.ends[i-1]
	}
	rows := m.stage[from:m.ends[i]]
	if m.sk == nil {
		m.exact(res, rows)
		return nil
	}
	res.Mode, res.N, res.SampleN = ModeExact, int64(len(rows)), len(rows)
	m.sk.Reset()
	for _, t := range rows {
		m.sk.Add(m.cfg.KeyBy(t), m.cfg.Value(t))
	}
	res.Groups = m.sk.Result()
	return nil
}

func (m *ExactManager) close(Result)  {}
func (m *ExactManager) resize()       {}
func (m *ExactManager) capacity() int { return 0 }

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
	wins ordered[window.ID, stats.Welford]
}

// NewIncrementalManager returns the incremental baseline for cfg.
func NewIncrementalManager(cfg Config) (*IncrementalManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.KeyBy != nil {
		return nil, errors.New("core: incremental baseline does not support grouped operations")
	}
	if cfg.Custom != nil {
		return nil, fmt.Errorf("core: %s cannot be processed incrementally", cfg.Custom)
	}
	if cfg.Agg.Holistic() {
		return nil, fmt.Errorf("core: %s cannot be processed incrementally", cfg.Agg)
	}
	m := &IncrementalManager{}
	m.shell = baselineShell(cfg, m)
	return m, nil
}

// fold adds an admitted run to the moments of every window it falls
// into, in arrival order.
func (m *IncrementalManager) fold(r run) {
	ws := m.wins.fill(r.first, r.hi, nil)
	for i := range ws {
		ws[i].AddSlice(r.vals)
	}
}

func (m *IncrementalManager) held(first, last window.ID) ([]window.ID, time.Duration) {
	ids, _ := m.wins.span(first, last+1)
	return ids, 0
}

// produce answers window id from its moments in O(1): for the mean the
// single division of §5.2 ("When a watermark arrives, it only performs a
// division to produce the mean per window").
func (m *IncrementalManager) produce(id window.ID, res *Result) error {
	w := m.wins.find(id)
	res.Mode, res.N, res.SampleN = ModeIncremental, w.Count(), int(w.Count())
	res.Scalar, _ = m.cfg.Agg.FromWelford(w)
	return nil
}

func (m *IncrementalManager) close(res Result) { m.wins.dropBefore(res.WindowID + 1) }
func (m *IncrementalManager) resize()          {}
func (m *IncrementalManager) capacity() int    { return 0 }

// BudgetMemUsage is what result production holds: the moments of each
// open window.
func (m *IncrementalManager) BudgetMemUsage() int { return len(m.wins.keys) * 56 }
