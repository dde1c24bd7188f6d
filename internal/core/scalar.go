package core

import (
	"fmt"
	"time"

	"spear/internal/col"
	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/window"
)

// ScalarManager is the SPEAr window manager for scalar stateful
// operations (§4.1 "Scalar"). Instead of buffering the window, it keeps
// what a fire reads and nothing else: per active window its size and a
// reservoir sample of the aggregated values bounded by the budget b
// (the estimator's moments are those of the sample and are computed
// from it at the fire) or, for a non-holistic aggregate, no per-window
// state at all: one accumulator per slice, which a fire merges into
// windows (DESIGN.md §22). On the sampled path every tuple is archived
// to secondary storage S for the exact fallback, and at watermark
// arrival the manager runs the accuracy check of Alg. 2; a non-holistic
// window has no check to fail, so there the manager holds slices and
// nothing else: no archive, and S is never touched.
//
// Ingest, fire, the controls and the snapshot header are the shell's;
// this file holds the scalar shape.
type ScalarManager struct {
	shell
	est ScalarEstimator

	wins ordered[window.ID, scalarWin] // sampled path; empty on the incremental one
	// slices is the incremental path's state (DESIGN.md §22), keyed by
	// each slice's first position.
	slices ordered[int64, slice]
}

type scalarWin struct {
	res *sample.Reservoir // nil under budget 0
	n   int64             // tuples in the window: the N of its result and of ε̂_w
	// tainted marks a window that lost at least one archive write to
	// load shedding: its exact fallback is gone, so a failed accuracy
	// check answers from the sample anyway (ModeShed).
	tainted bool
}

// slice is the unit of incremental state: the moments of the tuples at
// the positions that share the window assignment [lo, hi]
// (window.Spec.Slice), folded in arrival order. Both ends of an
// assignment grow with position, so the slices of window id are those
// whose first position lies in Spec.Bounds(id).
type slice struct {
	lo, hi window.ID
	acc    stats.Welford
}

// sliceBytes is what a slice holds.
const sliceBytes = 16 + 48

// sliceFor returns the accumulator of the slice with assignment
// [lo, hi], opening it at its place in position order.
func (m *ScalarManager) sliceFor(lo, hi window.ID) *stats.Welford {
	start, _ := m.cfg.Spec.Slice(lo, hi)
	return &m.slices.fill(start, start, func(int64) slice { return slice{lo: lo, hi: hi} })[0].acc
}

// NewScalarManager returns a manager for cfg. cfg.KeyBy must be nil.
func NewScalarManager(cfg Config) (*ScalarManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.KeyBy != nil {
		return nil, fmt.Errorf("core: ScalarManager given a grouped config; use NewGroupedManager")
	}
	m := &ScalarManager{est: cfg.ScalarEstimator}
	if m.est == nil {
		m.est = DefaultScalarEstimate
	}
	m.shell = newShell(cfg, m, cfg.archives())
	return m, nil
}

// OnColumnBatch is OnTupleBatch over the rows cb borrows. It is inert:
// no engine path calls it, and it stays because benchmark/layers/core
// times it as core.column_ingest (ROADMAP 3(e)).
func (m *ScalarManager) OnColumnBatch(cb *col.ColumnBatch) ([]Result, error) {
	return m.OnTupleBatch(cb.Rows())
}

func (m *ScalarManager) capacity() int { return m.curBudget }

func (m *ScalarManager) resize() {
	for i := range m.wins.vals {
		switch w := &m.wins.vals[i]; {
		case m.curBudget == 0:
			w.res = nil
		case w.res != nil:
			w.res.Resize(m.curBudget)
		}
	}
}

// fold: a run is one slice's. On the incremental path it is folded
// once, into that slice's accumulator, however many windows overlap. On
// the sampled path the work per open window is a count and
// Reservoir.AddSlice — the same admissions and PRNG draws as an Add per
// element, in O(admissions).
func (m *ScalarManager) fold(r run) {
	if !m.cfg.archives() {
		m.sliceFor(r.lo, r.hi).AddSlice(r.vals)
		return
	}
	ws := m.wins.fill(r.first, r.hi, m.open)
	for i := range ws {
		w := &ws[i]
		w.n += int64(len(r.vals))
		if w.res != nil {
			w.res.AddSlice(r.vals)
		}
		if r.taint {
			w.tainted = true
		}
	}
}

// open starts window id's sample: a reservoir of the live budget seeded
// by id, none under budget 0.
func (m *ScalarManager) open(id window.ID) (w scalarWin) {
	if m.curBudget > 0 {
		w.res = sample.NewReservoir(m.curBudget, sample.DeriveSeed(m.cfg.Seed, int64(id)), sample.AlgoL)
	}
	return w
}

func (m *ScalarManager) held(first, last window.ID) ([]window.ID, time.Duration) {
	if m.cfg.archives() {
		ids, _ := m.wins.span(first, last+1)
		return ids, 0
	}
	// Both ends of the slices' assignments ascend: their ids come out
	// ascending, each once.
	var ids []window.ID
	next := first
	for _, s := range m.slices.vals {
		for id := max(s.lo, next); id <= min(s.hi, last); id++ {
			ids = append(ids, id)
		}
		next = max(next, s.hi+1)
	}
	return ids, 0
}

// produce runs Alg. 2 for one window: estimate ε̂_w from budget contents
// and either emit R̂_w or fall back to the whole window. An incremental
// window has no check to fail: its moments were maintained at tuple
// arrival, a slice at a time, and finalizing is a merge per slice of the
// window, in position order, and the division of §5.2.
func (m *ScalarManager) produce(id window.ID, res *Result) error {
	if !m.cfg.archives() {
		var acc stats.Welford
		_, sls := m.slices.span(res.Start, res.End)
		for i := range sls {
			acc.Merge(sls[i].acc)
		}
		res.Mode = ModeIncremental
		res.Scalar, _ = m.cfg.Agg.FromWelford(&acc)
		res.N, res.SampleN = acc.Count(), int(acc.Count())
		return nil
	}
	w := m.wins.find(id)
	res.N = w.n
	// Accuracy estimation from b's contents only.
	var smp []float64
	if w.res != nil {
		smp = w.res.Items()
	}
	var sw stats.Welford
	for _, v := range smp {
		sw.Add(v)
	}
	estErr, ok := m.est(ScalarState{
		Sample: smp, N: w.n, Stats: &sw,
		Epsilon: m.cfg.Epsilon, Confidence: m.cfg.Confidence, Agg: m.cfg.Agg, Custom: m.cfg.Custom,
	})
	if m.answers(res, estErr, ok, true, w.tainted) {
		res.SampleN = len(smp)
		res.Scalar = m.evalSample(smp, w.n)
		return nil
	}
	return m.fetch(res)
}

// evalSample evaluates the operation on a sample from a window of n.
func (m *ScalarManager) evalSample(sample []float64, n int64) float64 {
	if m.cfg.Custom != nil {
		return m.cfg.Custom.Compute(sample, n)
	}
	return m.cfg.Agg.Estimate(sample, n)
}

// close retires the window res answered, and the slices no open window
// reads, those of assignment hi ≤ its id: fire closes in id order, so
// every window up to it has fired.
// The per-window budget step and the controller cell are mutually
// exclusive owners of the budget; with a cell attached the step is
// skipped.
func (m *ScalarManager) close(res Result) {
	if m.cfg.BudgetMax > 0 && m.cfg.Cell == nil {
		m.curBudget = m.nextBudget(res)
		m.cfg.Metrics.BudgetTuples.Set(int64(m.curBudget))
	}
	m.wins.dropBefore(res.WindowID + 1)
	m.slices.dropBefore(int64(res.WindowID+1) * m.cfg.Spec.Slide)
}

// nextBudget is the per-window budget policy: one additive-increase/
// multiplicative-decrease step after result r. An exact fallback means
// the budget was insufficient, so it grows aggressively (×2 + 1) and the
// next windows stop paying the full-processing penalty; an accelerated
// window whose ε̂ sits under half of ε has headroom, so the budget
// shrinks slowly (×0.95). The result stays within [BudgetMin,
// BudgetMax]. It converges to the smallest budget that keeps windows
// accelerating on the current data, so operators need not run the
// paper's offline analysis to pick b.
func (m *ScalarManager) nextBudget(r Result) int {
	next := m.curBudget
	switch {
	case r.Mode == ModeExact:
		next = 2*next + 1
	case r.Mode == ModeSampled && r.EstError < m.cfg.Epsilon*0.5:
		next = int(float64(next) * 0.95)
	}
	return min(max(next, m.cfg.BudgetMin), m.cfg.BudgetMax)
}

// BudgetMemUsage is the memory used to produce results, charged against
// b as held: per open window its count and its reservoir sample, or per
// open slice its accumulator (shape.BudgetMemUsage says what it leaves
// out).
func (m *ScalarManager) BudgetMemUsage() int {
	n := len(m.slices.keys) * sliceBytes
	for _, w := range m.wins.vals {
		n += 8 // w.n
		if w.res != nil {
			n += w.res.MemSize()
		}
	}
	return n
}

// ensure interface compliance.
var _ Manager = (*ScalarManager)(nil)
