package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/tuple"
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
// All three entry points feed one kernel, ingestRun (DESIGN.md §19).
type ScalarManager struct {
	cfg Config
	est ScalarEstimator
	arc *archive // nil when useIncremental

	wins map[window.ID]*scalarWin // sampled path; empty when useIncremental
	// The incremental path's state (DESIGN.md §22): slices in position
	// order and, ahead of them, what a 't' snapshot knew of its open
	// windows — per-window moments, each a slice of that one window.
	carry, slices []slice
	lc            window.Lifecycle
	cols          rowColumns
	curBudget     int
	shed          bool  // archive writes currently shed (controller escalation)
	sheds         int64 // tuples whose archive write was shed
	now           func() time.Time
}

// rowColumns is a row batch read once into the two columns an ingest
// kernel takes: positions and aggregated values. It holds nothing
// between calls.
type rowColumns struct {
	pos  []int64
	vals []float64
}

func (c *rowColumns) read(rows []tuple.Tuple, lc *window.Lifecycle, value func(tuple.Tuple) float64) {
	n := len(rows)
	c.pos = slices.Grow(c.pos[:0], n)[:n]
	c.vals = slices.Grow(c.vals[:0], n)[:n]
	for i := range rows {
		c.pos[i] = lc.Pos(rows[i].Ts, i)
		c.vals[i] = value(rows[i])
	}
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
// (window.Spec.Slice), folded in arrival order.
type slice struct {
	lo, hi window.ID
	acc    stats.Welford
}

// after reports whether s holds later positions than the slice with
// assignment [lo, hi]: both ends of an assignment grow with position,
// so it does iff either end is larger.
func (s *slice) after(lo, hi window.ID) bool { return s.hi > hi || s.lo > lo }

// sliceBytes is what a slice holds.
const sliceBytes = 16 + 48

// sliceFor returns the accumulator of the slice with assignment
// [lo, hi], opening it at its place in position order. Tuples arrive
// into the newest slice or, inside the watermark lag, one a few back.
func (m *ScalarManager) sliceFor(lo, hi window.ID) *stats.Welford {
	i := len(m.slices)
	for i > 0 && m.slices[i-1].after(lo, hi) {
		i--
	}
	if i == 0 || m.slices[i-1].hi != hi || m.slices[i-1].lo != lo {
		m.slices = slices.Insert(m.slices, i, slice{lo: lo, hi: hi})
		i++
	}
	return &m.slices[i-1].acc
}

// NewScalarManager returns a manager for cfg. cfg.KeyBy must be nil.
func NewScalarManager(cfg Config) (*ScalarManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.KeyBy != nil {
		return nil, fmt.Errorf("core: ScalarManager given a grouped config; use NewGroupedManager")
	}
	est := cfg.ScalarEstimator
	if est == nil {
		est = defaultScalarEstimator(cfg.Agg)
	}
	m := &ScalarManager{
		cfg:       cfg,
		est:       est,
		wins:      make(map[window.ID]*scalarWin),
		lc:        window.NewLifecycle(cfg.Spec),
		curBudget: cfg.BudgetTuples,
		now:       cfg.clock(),
	}
	if !m.useIncremental() {
		m.arc = newArchive(cfg.Store, cfg.Key, cfg.Spec, cfg.ArchiveChunk, cfg.DeferStoreDeletes)
	}
	cfg.Metrics.BudgetTuples.Set(int64(m.curBudget))
	return m, nil
}

// syncControl pulls the controller cell's published budget and shedding
// state into the manager. Called at the top of every OnTuple/
// OnTupleBatch/OnColumnBatch — two atomic loads plus comparisons in the
// common no-change case; reservoir resizes happen only when the target
// actually moved, never inside a per-tuple loop.
func (m *ScalarManager) syncControl() {
	c := m.cfg.Cell
	if c == nil {
		return
	}
	if b := c.Budget(); b != m.curBudget {
		m.SetBudget(b)
	}
	m.SetShedding(c.Shedding())
}

// SetBudget applies a new tuple budget immediately: live windows'
// reservoirs are resized in place (a seeded uniform down-sample on
// shrink, so every active sample stays a simple random sample of its
// window so far), and windows created from here on start at the new
// capacity. A non-positive budget disables sampling — live samples are
// dropped and affected windows can only answer exactly.
func (m *ScalarManager) SetBudget(b int) {
	if b < 0 {
		b = 0
	}
	if b == m.curBudget {
		return
	}
	m.curBudget = b
	for _, w := range m.wins {
		switch {
		case b == 0:
			w.res = nil
		case w.res != nil:
			w.res.Resize(b)
		}
		// A window that already lost its sample to a budget-0 phase
		// stays sample-less: admitting only the suffix of its stream
		// would not be a uniform sample.
	}
	m.cfg.Metrics.BudgetTuples.Set(int64(b))
}

// SetShedding turns archive-write shedding on or off (the controller
// goes through the cell and syncControl; tests and embedders call it
// directly). Refused where it means nothing: an incremental query has
// no archive write to skip, and a zero budget no sample to answer from.
func (m *ScalarManager) SetShedding(on bool) {
	m.shed = on && !m.useIncremental() && m.curBudget > 0
}

func (m *ScalarManager) useIncremental() bool {
	return m.cfg.Custom == nil && m.cfg.Agg.Incremental() && !m.cfg.DisableIncremental
}

// newWin returns the state of sampled window id.
func (m *ScalarManager) newWin(id window.ID) *scalarWin {
	w := &scalarWin{}
	if m.curBudget > 0 {
		w.res = sample.NewReservoir(m.curBudget, sample.DeriveSeed(m.cfg.Seed, int64(id)), sample.AlgoL)
	}
	return w
}

// evalSample evaluates the operation on a sample from a window of n.
func (m *ScalarManager) evalSample(sample []float64, n int64) float64 {
	if m.cfg.Custom != nil {
		return m.cfg.Custom.Compute(sample, n)
	}
	return m.cfg.Agg.Estimate(sample, n)
}

// evalExact evaluates the operation on the full window.
func (m *ScalarManager) evalExact(values []float64) float64 {
	if m.cfg.Custom != nil {
		return m.cfg.Custom.Compute(values, int64(len(values)))
	}
	return m.cfg.Agg.Compute(values)
}

// OnTuple implements Manager (Alg. 1): a batch of one.
func (m *ScalarManager) OnTuple(t tuple.Tuple) ([]Result, error) {
	row := [1]tuple.Tuple{t}
	return m.OnTupleBatch(row[:])
}

// OnTupleBatch implements BatchManager: the rows' positions and values
// are read once into two columns and handed to the kernel.
func (m *ScalarManager) OnTupleBatch(rows []tuple.Tuple) ([]Result, error) {
	m.syncControl()
	m.cols.read(rows, &m.lc, m.cfg.Value)
	return m.ingestRun(m.cols.pos, m.cols.vals, rows)
}

// ingestRun is the manager's one ingest kernel (Alg. 1 over a batch):
// ts, vals and rows are a batch's positions, aggregated values and
// tuples, index-aligned. Spec.EachRun cuts the batch into runs that
// share one window assignment, so the assignment, the lifecycle's
// admission and the archive append are paid per run. A run is one
// slice's: on the incremental path it is folded once, into that slice's
// accumulator, however many windows overlap, and goes nowhere else. On
// the sampled path the work per run and open window is a count and
// Reservoir.AddSlice — the same admissions and PRNG draws as an Add per
// element, in O(admissions) — and the run's rows go to the archive. A
// slice and a window see their tuples in arrival order wherever the
// batches were cut, so every value, ε̂_w and Mode is what a per-tuple
// loop produces. A count-domain window completes exactly at the end of
// a run (the next position has a different assignment), so there the
// kernel fires after each run.
func (m *ScalarManager) ingestRun(ts []int64, vals []float64, rows []tuple.Tuple) ([]Result, error) {
	count, inc := m.cfg.Spec.Domain == window.CountDomain, m.useIncremental()
	var out []Result
	var err error
	late0 := m.lc.Late()
	m.cfg.Spec.EachRun(ts, func(i0, i1 int, lo, hi window.ID) {
		if err != nil {
			return
		}
		first, ok := m.lc.Admit(ts[i0:i1], lo, hi)
		if !ok {
			return // late: neither sampled nor archived
		}
		run := vals[i0:i1]
		if inc {
			// No check can fail, so there is no fallback to archive for.
			m.sliceFor(lo, hi).AddSlice(run)
		} else {
			for id := first; id <= hi; id++ {
				w, ok := m.wins[id] // once per run: the map will do
				if !ok {
					w = m.newWin(id)
					m.wins[id] = w
				}
				w.n += int64(len(run))
				if w.res != nil {
					w.res.AddSlice(run)
				}
				if m.shed {
					w.tainted = true
				}
			}
			if m.shed {
				// Load shedding: skip the archive write — the per-tuple cost
				// that saturates under overload — and keep only the in-budget
				// state. N stays exact and the sample a uniform s.r.s. of
				// the whole window. What is lost is the exact fallback for
				// the windows this run spans.
				m.sheds += int64(i1 - i0)
				m.cfg.Metrics.TuplesShed.Add(int64(i1 - i0))
			} else if err = m.arc.addRun(int64(hi), ts[i0:i1], rows[i0:i1]); err != nil {
				return
			}
		}
		if count {
			var rs []Result
			rs, err = m.fire(m.lc.Seq())
			out = append(out, rs...)
		}
	})
	if m.cfg.countIngest(len(ts), m.lc.Late()-late0) {
		m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	}
	return out, err
}

// OnWatermark implements Manager (Alg. 2).
func (m *ScalarManager) OnWatermark(wm int64) ([]Result, error) {
	if m.cfg.Spec.Domain == window.CountDomain {
		return nil, nil
	}
	return m.fire(wm)
}

func (m *ScalarManager) fire(wm int64) ([]Result, error) {
	first, last, ok := m.lc.Complete(wm)
	if !ok {
		return nil, nil
	}
	var out []Result
	for _, id := range m.held(first, last) {
		r, err := m.produce(id)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		// The per-window step and the controller cell are mutually
		// exclusive owners of the budget; with a cell attached the
		// step is skipped.
		if m.cfg.BudgetMax > 0 && m.cfg.Cell == nil {
			m.curBudget = m.nextBudget(r)
			m.cfg.Metrics.BudgetTuples.Set(int64(m.curBudget))
		}
		delete(m.wins, id)
	}
	open := m.lc.NextOpen()
	closed := func(s slice) bool { return s.hi < open }
	m.carry, m.slices = slices.DeleteFunc(m.carry, closed), slices.DeleteFunc(m.slices, closed)
	start, _ := m.cfg.Spec.Bounds(open)
	if err := m.arc.evictBefore(start); err != nil {
		return nil, err
	}
	m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	return out, nil
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

// held returns, ascending, the ids in [first, last] of the windows that
// hold tuples — never the id range: a watermark after a gap in the
// stream costs the windows and slices that exist.
func (m *ScalarManager) held(first, last window.ID) []window.ID {
	if !m.useIncremental() {
		return window.IDsIn(m.wins, first, last)
	}
	var ids []window.ID
	for _, table := range [2][]slice{m.carry, m.slices} {
		for _, s := range table {
			for id := max(s.lo, first); id <= min(s.hi, last); id++ {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// produce runs Alg. 2 for one window: estimate ε̂_w from budget contents
// and either emit R̂_w or fall back to the whole window. An incremental
// window is assembled first: the slices whose assignment contains id,
// merged in position order.
func (m *ScalarManager) produce(id window.ID) (Result, error) {
	t0 := m.now()
	startPos, endPos := m.cfg.Spec.Bounds(id)
	res := Result{
		WindowID:   id,
		Start:      startPos,
		End:        endPos,
		Epsilon:    m.cfg.Epsilon,
		Confidence: m.cfg.Confidence,
		Budget:     m.curBudget,
	}

	switch w := m.wins[id]; {
	case m.useIncremental():
		// Non-holistic fast path: the moments were maintained at tuple
		// arrival, a slice at a time; finalizing is a merge per slice
		// of the window and the division of §5.2.
		var acc stats.Welford
		for _, table := range [2][]slice{m.carry, m.slices} {
			for i := range table {
				if s := &table[i]; s.lo <= id && id <= s.hi {
					acc.Merge(s.acc)
				}
			}
		}
		res.Mode = ModeIncremental
		res.Scalar, _ = m.cfg.Agg.FromWelford(&acc)
		res.N, res.SampleN = acc.Count(), int(acc.Count())

	default:
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
		state := ScalarState{
			Sample:     smp,
			N:          w.n,
			Stats:      &sw,
			Epsilon:    m.cfg.Epsilon,
			Confidence: m.cfg.Confidence,
			Agg:        m.cfg.Agg,
			Custom:     m.cfg.Custom,
		}
		estErr, ok := m.est(state)
		switch {
		case ok && estErr <= m.cfg.Epsilon:
			res.Mode = ModeSampled
			res.EstError = estErr
			res.SampleN = len(smp)
			res.Scalar = m.evalSample(smp, state.N)
		case w.tainted:
			// The accuracy check failed but shedding dropped (part of)
			// this window's archive, so the exact fallback is gone.
			// Answer from the sample anyway and surface the realized
			// bound — possibly above ε — in the contract fields; the
			// Mode records that the ε guarantee was traded for
			// latency.
			m.cfg.Metrics.EstimationFailures.Add(1)
			res.Mode = ModeShed
			res.EstError = estErr
			if !ok {
				res.EstError = math.Inf(1)
			}
			res.SampleN = len(smp)
			res.Scalar = m.evalSample(smp, state.N)
		default:
			// ε̂_w > ε: process the whole window from S (Alg. 2
			// line 5) — performance identical to normal execution
			// plus the failed check.
			m.cfg.Metrics.EstimationFailures.Add(1)
			ts, err := m.arc.fetch(startPos, endPos)
			if err != nil {
				return res, fmt.Errorf("core: exact fallback window %d: %w", id, err)
			}
			vals := make([]float64, len(ts))
			for i, t := range ts {
				vals[i] = m.cfg.Value(t)
			}
			res.Mode = ModeExact
			res.SampleN = len(vals)
			res.N = int64(len(vals))
			res.Scalar = m.evalExact(vals)
			res.FetchedFromStore = true
		}
	}

	m.cfg.countFire(&res, m.now().Sub(t0))
	return res, nil
}

// PrefetchWatermark implements the engine's Prefetcher hook: after the
// watermark wm fired its windows, warm the spill plane's cache with the
// panes of the next SpillAhead windows, so that if their accuracy check
// fails the exact fallback reads from memory instead of S. Results are
// unaffected — prefetching only moves bytes earlier.
func (m *ScalarManager) PrefetchWatermark(wm int64) {
	m.arc.prefetchAhead(&m.lc, wm, m.cfg.SpillAhead)
}

// KeepsRows reports whether the manager holds ingested rows past the
// ingest call: its archive does (KeepsRows in result.go).
func (m *ScalarManager) KeepsRows() bool { return m.arc != nil }

// MemUsage implements Manager: the budget-resident state (samples plus
// per-window statistics) and the transient archive chunk buffers.
func (m *ScalarManager) MemUsage() int {
	return m.arc.memUsage() + m.BudgetMemUsage()
}

// BudgetMemUsage is the memory used to produce results, charged against
// b as held: per open window its count and its reservoir sample, or per
// open slice its accumulator. This is the
// quantity Fig. 7 shows staying flat at ≈b while the exact engine's
// buffer grows with the window; the archive's write-behind chunks
// (bounded by ArchiveChunk·overlap tuples regardless of window size)
// are the cost of shipping tuples to S, not of producing results, and
// are excluded here just as the paper excludes its workers' S writes.
func (m *ScalarManager) BudgetMemUsage() int {
	n := (len(m.carry) + len(m.slices)) * sliceBytes
	for _, w := range m.wins {
		n += 8 // w.n
		if w.res != nil {
			n += w.res.MemSize()
		}
	}
	return n
}

// LateDropped returns the number of dropped late tuples.
func (m *ScalarManager) LateDropped() int64 { return m.lc.Late() }
