package core

import (
	"fmt"
	"math"
	"time"

	"spear/internal/agg"
	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/tuple"
	"spear/internal/window"
)

// ScalarManager is the SPEAr window manager for scalar stateful
// operations (§4.1 "Scalar"). Instead of buffering the window, it keeps
// per active window a reservoir sample of the aggregated values bounded
// by the budget b, plus the window's incrementally maintained size and
// moments; every tuple is archived to secondary storage S for the exact
// fallback. At watermark arrival it runs the accuracy check of Alg. 2.
type ScalarManager struct {
	//lint:allow snapshotcover config handle; only telemetry under it mutates
	cfg Config
	est ScalarEstimator
	arc *archive

	wins map[window.ID]*scalarWin
	// lastID/lastWin memoize the most recent wins lookup: consecutive
	// tuples overwhelmingly hit the same window(s), so the per-tuple
	// map access in ingest collapses to a comparison. Invalidated
	// whenever wins entries are deleted or the map is replaced.
	// Not serialized: a memo cache is rebuilt on demand, and RestoreState
	// resets both halves (covered by the directive on each line).
	lastID    window.ID  //lint:allow snapshotcover memo cache; rebuilt on demand, reset by RestoreState
	lastWin   *scalarWin //lint:allow snapshotcover memo cache; rebuilt on demand, reset by RestoreState
	started   bool
	fired     bool // some window has actually closed; lateness is defined from here on
	nextFire  window.ID
	seq       int64
	maxPos    int64
	late      int64
	curBudget int
	shed      bool  // archive writes currently shed (controller escalation)
	sheds     int64 // tuples whose archive write was shed
	now       func() time.Time
}

type scalarWin struct {
	res   *sample.Reservoir
	all   stats.Welford // moments and count of every tuple in the window
	inc   *agg.Incremental
	first int64 // position of the first tuple (diagnostics)
	// tainted marks a window that lost at least one archive write to
	// load shedding: its exact fallback is gone, so a failed accuracy
	// check answers from the sample anyway (ModeShed).
	tainted bool
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
	if p, ok := cfg.Budget.(*AIMDBudget); ok && p.Epsilon == 0 {
		p.Epsilon = cfg.Epsilon
	}
	m := &ScalarManager{
		cfg:       cfg,
		est:       est,
		arc:       newArchive(cfg.Store, cfg.Key, cfg.Spec, cfg.ArchiveChunk, cfg.DeferStoreDeletes),
		wins:      make(map[window.ID]*scalarWin),
		curBudget: cfg.BudgetTuples,
		now:       cfg.clock(),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.BudgetTuples.Set(int64(m.curBudget))
	}
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
	// Shedding without a sample to answer from would produce nothing at
	// all; the manager refuses until the budget is positive again.
	m.shed = c.Shedding() && m.curBudget > 0
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
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.BudgetTuples.Set(int64(b))
	}
}

// SetShedding toggles archive-write shedding directly (the controller
// path goes through the cell; this is the test/embedding seam).
// Ignored while the budget is zero — shedding requires a sample.
func (m *ScalarManager) SetShedding(on bool) { m.shed = on && m.curBudget > 0 }

func (m *ScalarManager) useIncremental() bool {
	return m.cfg.Custom == nil && m.cfg.Agg.Incremental() && !m.cfg.DisableIncremental
}

// newWin returns the state of window id, first seen at pos. A window
// answered incrementally keeps no sample: produce reads w.inc alone,
// so a reservoir there would be fed per tuple and never read.
func (m *ScalarManager) newWin(id window.ID, pos int64) *scalarWin {
	w := &scalarWin{first: pos}
	if m.useIncremental() {
		w.inc, _ = agg.NewIncremental(m.cfg.Agg)
	} else if m.curBudget > 0 {
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

// OnTuple implements Manager (Alg. 1): update the budget's sample and
// statistics, archive the tuple to S.
func (m *ScalarManager) OnTuple(t tuple.Tuple) ([]Result, error) {
	m.syncControl()
	rs, ingested, err := m.ingest(t)
	if err != nil {
		return rs, err
	}
	if ingested && m.cfg.Metrics != nil {
		m.cfg.Metrics.TuplesIn.Inc()
		m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	}
	return rs, nil
}

// OnTupleBatch implements BatchManager: the per-tuple work of Alg. 1
// with the telemetry updates (counter increment, memory gauge refresh)
// amortized once per batch instead of once per tuple.
func (m *ScalarManager) OnTupleBatch(ts []tuple.Tuple) ([]Result, error) {
	m.syncControl()
	var out []Result
	ingested := 0
	for i := range ts {
		rs, ok, err := m.ingest(ts[i])
		if len(rs) > 0 {
			//lint:ignore hotloop results are per-window fires, not per-tuple; out stays nil on most batches and preallocating len(batch) would allocate every batch
			out = append(out, rs...)
		}
		if err != nil {
			return out, err
		}
		if ok {
			ingested++
		}
	}
	if ingested > 0 && m.cfg.Metrics != nil {
		m.cfg.Metrics.TuplesIn.Add(int64(ingested))
		m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	}
	return out, nil
}

// ingest is the metrics-free per-tuple body shared by OnTuple and
// OnTupleBatch. ingested is false for late-dropped tuples (which count
// toward LateDropped, not TuplesIn).
func (m *ScalarManager) ingest(t tuple.Tuple) (rs []Result, ingested bool, err error) {
	pos := t.Ts
	if m.cfg.Spec.Domain == window.CountDomain {
		pos = m.seq
		t.Ts = pos
	}
	m.seq++
	if pos > m.maxPos || m.seq == 1 {
		m.maxPos = pos
	}

	lo, hi := m.cfg.Spec.Assign(pos)
	if !m.started {
		m.started = true
		m.nextFire = lo
	} else if lo < m.nextFire && !m.fired {
		// Before the first fire the anchor is only a guess from the
		// first tuple seen; with several upstream senders the merged
		// stream is unordered between watermark rounds, so an earlier
		// tuple must lower it rather than be misclassified as late.
		// Nothing below nextFire has closed until m.fired.
		m.nextFire = lo
	}
	if hi < m.nextFire {
		m.late++
		if m.cfg.Metrics != nil {
			m.cfg.Metrics.LateDropped.Inc()
		}
		return nil, false, nil
	}
	if lo < m.nextFire {
		lo = m.nextFire
	}

	v := m.cfg.Value(t)
	for id := lo; id <= hi; id++ {
		w := m.lastWin
		if w == nil || id != m.lastID {
			var ok bool
			w, ok = m.wins[id]
			if !ok {
				w = m.newWin(id, pos)
				m.wins[id] = w
			}
			m.lastID, m.lastWin = id, w
		}
		if w.res != nil {
			w.res.Add(v)
		}
		w.all.Add(v)
		if w.inc != nil {
			w.inc.Add(v)
		}
		if m.shed {
			w.tainted = true
		}
	}
	if m.shed {
		// Load shedding: skip the archive write — the per-tuple cost
		// that saturates under overload — and keep only the in-budget
		// state. N and the moments stay exact; the sample stays a
		// uniform s.r.s. of the whole window. What is lost is the
		// exact fallback for the windows this tuple spans.
		m.sheds++
		if m.cfg.Metrics != nil {
			m.cfg.Metrics.TuplesShed.Inc()
		}
	} else if err := m.arc.add(t); err != nil {
		return nil, true, err
	}

	if m.cfg.Spec.Domain == window.CountDomain {
		rs, err := m.fire(m.seq)
		return rs, true, err
	}
	return nil, true, nil
}

// OnWatermark implements Manager (Alg. 2).
func (m *ScalarManager) OnWatermark(wm int64) ([]Result, error) {
	if m.cfg.Spec.Domain == window.CountDomain {
		return nil, nil
	}
	return m.fire(wm)
}

func (m *ScalarManager) fire(wm int64) ([]Result, error) {
	if !m.started {
		return nil, nil
	}
	last := m.cfg.Spec.FirstCompleteBy(wm)
	// Clamp to windows that can hold data, so a +∞ closing watermark
	// fires a finite range.
	if _, hiData := m.cfg.Spec.Assign(m.maxPos); last > hiData {
		last = hiData
	}
	if last < m.nextFire {
		return nil, nil
	}
	m.fired = true // windows at and below last are closed for good
	var out []Result
	for id := m.nextFire; id <= last; id++ {
		r, err := m.produce(id)
		if err != nil {
			return nil, err
		}
		if r != nil {
			out = append(out, *r)
			// A per-window budget policy and the controller cell are
			// mutually exclusive owners of the budget; with a cell
			// attached the policy is ignored.
			if m.cfg.Budget != nil && m.cfg.Cell == nil {
				if next := m.cfg.Budget.Next(m.curBudget, *r); next >= 1 {
					m.curBudget = next
					if m.cfg.Metrics != nil {
						m.cfg.Metrics.BudgetTuples.Set(int64(next))
					}
				}
			}
		}
		delete(m.wins, id)
	}
	m.lastWin = nil // fired windows may include the memoized one
	m.nextFire = last + 1
	start, _ := m.cfg.Spec.Bounds(m.nextFire)
	if err := m.arc.evictBefore(start); err != nil {
		return nil, err
	}
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	}
	return out, nil
}

// produce runs Alg. 2 for one window: estimate ε̂_w from budget contents
// and either emit R̂_w or fall back to the whole window.
func (m *ScalarManager) produce(id window.ID) (*Result, error) {
	w, ok := m.wins[id]
	if !ok {
		return nil, nil // window received no tuples
	}
	t0 := m.now()
	startPos, endPos := m.cfg.Spec.Bounds(id)
	res := Result{
		WindowID:   id,
		Start:      startPos,
		End:        endPos,
		N:          w.all.Count(),
		Epsilon:    m.cfg.Epsilon,
		Confidence: m.cfg.Confidence,
		Budget:     m.curBudget,
	}

	switch {
	case w.inc != nil:
		// Non-holistic fast path: the result was maintained at tuple
		// arrival; finalizing is O(1) ("it only performs a division
		// to produce the mean per window").
		res.Mode = ModeIncremental
		res.Scalar = w.inc.Result()
		res.SampleN = int(w.all.Count())

	default:
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
			N:          w.all.Count(),
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
			if m.cfg.Metrics != nil {
				m.cfg.Metrics.EstimationFailures.Inc()
			}
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
			if m.cfg.Metrics != nil {
				m.cfg.Metrics.EstimationFailures.Inc()
			}
			ts, err := m.arc.fetch(startPos, endPos)
			if err != nil {
				return nil, fmt.Errorf("core: exact fallback window %d: %w", id, err)
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
			if m.cfg.Metrics != nil {
				m.cfg.Metrics.TuplesProcessedFull.Add(int64(len(vals)))
			}
		}
	}

	if m.cfg.Metrics != nil {
		m.cfg.Metrics.ProcTime.ObserveDuration(m.now().Sub(t0))
		m.cfg.Metrics.WindowsTotal.Inc()
		if res.Mode.Accelerated() {
			m.cfg.Metrics.WindowsAccelerated.Inc()
		} else {
			m.cfg.Metrics.WindowsExact.Inc()
		}
		if res.Mode == ModeShed {
			m.cfg.Metrics.WindowsShed.Inc()
		}
		if res.FetchedFromStore {
			m.cfg.Metrics.WindowsSpilled.Inc()
		}
	}
	return &res, nil
}

// PrefetchWatermark implements the engine's Prefetcher hook: after the
// watermark wm fired its windows, warm the spill plane's cache with the
// panes of the next SpillAhead windows, so that if their accuracy check
// fails the exact fallback reads from memory instead of S. Results are
// unaffected — prefetching only moves bytes earlier.
func (m *ScalarManager) PrefetchWatermark(wm int64) {
	if m.cfg.SpillAhead <= 0 || !m.started || m.cfg.Spec.Domain == window.CountDomain {
		return
	}
	first := m.cfg.Spec.FirstCompleteBy(wm) + 1
	if first < m.nextFire {
		first = m.nextFire
	}
	for id := first; id < first+window.ID(m.cfg.SpillAhead); id++ {
		start, end := m.cfg.Spec.Bounds(id)
		m.arc.prefetch(start, end)
	}
}

// MemUsage implements Manager: the budget-resident state (samples plus
// per-window statistics) and the transient archive chunk buffers.
func (m *ScalarManager) MemUsage() int {
	return m.arc.memUsage() + m.BudgetMemUsage()
}

// BudgetMemUsage is the memory used to produce results — the reservoir
// samples and per-window statistics charged against b. This is the
// quantity Fig. 7 shows staying flat at ≈b while the exact engine's
// buffer grows with the window; the archive's write-behind chunks
// (bounded by ArchiveChunk·overlap tuples regardless of window size)
// are the cost of shipping tuples to S, not of producing results, and
// are excluded here just as the paper excludes its workers' S writes.
func (m *ScalarManager) BudgetMemUsage() int {
	n := 0
	for _, w := range m.wins {
		if w.res != nil {
			n += w.res.MemSize()
		}
		n += w.all.MemSize()
	}
	return n
}

// LateDropped returns the number of dropped late tuples.
func (m *ScalarManager) LateDropped() int64 { return m.late }
