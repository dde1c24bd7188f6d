package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"spear/internal/agg"
	"spear/internal/sample"
	"spear/internal/stats"
	"spear/internal/tuple"
	"spear/internal/window"
)

// GroupedManager is the SPEAr window manager for grouped stateful
// operations (§4.1 "Grouped"). Its architecture depends on whether the
// number of distinct groups is known at CQ submission:
//
// Unknown groups (the general case): grouped results must contain every
// distinct group, and a stratified sample cannot be built online without
// knowing group frequencies, so the window's tuples are buffered by the
// ordinary single-buffer design while the budget b accumulates each
// group's frequency and value variance. At watermark arrival the manager
// derives a congressional sample allocation from the frequencies,
// estimates the L1-aggregated error, and — when the check passes —
// builds the stratified sample during the eviction scan the
// single-buffer design performs anyway, aggregating only the sample
// instead of the whole window.
//
// Known groups (Config.KnownGroups > 0): the budget is divided equally
// and per-group reservoirs are filled at tuple arrival, so the window is
// never buffered at all — tuples are archived to secondary storage S
// exactly like the scalar path, the accelerated result costs O(b) with
// no scan ("no scans of S_w are needed and SPEAr produces R̂_w at a
// minimal cost"), and a failed check fetches the window back from S.
type GroupedManager struct {
	cfg Config
	est GroupedEstimator

	// curBudget is the live tuple budget b: cfg.BudgetTuples at start,
	// retuned online through cfg.Cell by the adaptive controller.
	curBudget int
	// shed mirrors the controller's shedding flag: while set, the known
	// path skips archive writes (the saturating per-tuple cost) and
	// taints affected windows; group metadata and reservoirs stay live.
	shed  bool
	sheds int64

	// Buffered path (unknown groups).
	buf *window.SingleBuffer
	// Arrival-sampled path (known groups).
	arc *archive

	// lc is the window lifecycle both paths ingest and fire by: own on
	// the known path, and on the buffered path the buffer's, borrowed.
	// The buffer decides which windows a fire stages; a cursor of the
	// manager's beside the buffer's could only disagree with it
	// (DESIGN.md §20), so there own stays unused.
	lc  *window.Lifecycle
	own window.Lifecycle

	// Grouped state (DESIGN.md, "Grouped state layout"): one key
	// dictionary for the manager, and per open window arrays indexed
	// through its ids, so ingest hashes a tuple's key once and then
	// indexes.
	dict *sample.KeyDict
	wins map[window.ID]*groupedWin
	// pool holds the windows that fired, cleared, with their arrays and
	// sample storage, for the windows that open next.
	pool []*groupedWin
	scr  groupedScratch
	now  func() time.Time
}

// groupedScratch is what the ingest kernel keeps from call to call so as
// not to allocate: a row batch as columns, the group id of each row of
// the run being folded, and for a column batch its dictionary codes
// resolved to group ids (plus one; all zero between batches) with the
// list of the codes that were.
type groupedScratch struct {
	rowColumns
	ids, codeIDs []uint32
	mapped       []int32
}

type groupedWin struct {
	gs    *sample.GroupStats
	known *sample.GroupReservoirs // per-group reservoirs; nil when unknown groups or per-group cap was 0 at creation
	// tainted marks that load shedding skipped archive writes while the
	// window was open: its pane set in S is incomplete and the exact
	// fallback is no longer available.
	tainted bool
}

// NewGroupedManager returns a manager for cfg. cfg.KeyBy must be set.
func NewGroupedManager(cfg Config) (*GroupedManager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.KeyBy == nil {
		return nil, fmt.Errorf("core: GroupedManager without KeyBy; use NewScalarManager")
	}
	est := cfg.GroupedEstimator
	if est == nil {
		est = defaultGroupedEstimator(cfg.Agg)
	}
	m := &GroupedManager{
		cfg:       cfg,
		est:       est,
		curBudget: cfg.BudgetTuples,
		dict:      sample.NewKeyDict(),
		wins:      make(map[window.ID]*groupedWin),
		now:       cfg.clock(),
	}
	cfg.Metrics.BudgetTuples.Set(int64(m.curBudget))
	if cfg.KnownGroups > 0 {
		m.arc = newArchive(cfg.Store, cfg.Key, cfg.Spec, cfg.ArchiveChunk, cfg.DeferStoreDeletes)
		m.own = window.NewLifecycle(cfg.Spec)
		m.lc = &m.own
	} else {
		buf, err := window.NewSingleBuffer(window.Config{
			Spec: cfg.Spec,
			// Windows answered from per-group metadata never need
			// their tuples materialized; the evict scan is the only
			// window-time tuple work SPEAr pays (§4.2: "this scan is
			// already required by the single buffer design").
			SkipCollect: m.incrementalApplies,
		})
		if err != nil {
			return nil, err
		}
		m.buf, m.lc = buf, buf.Lifecycle()
	}
	return m, nil
}

// incrementalApplies reports whether window id will be produced from
// per-group metadata alone (the non-holistic grouped fast path).
func (m *GroupedManager) incrementalApplies(id window.ID) bool {
	if !m.cfg.Agg.Incremental() || m.cfg.DisableIncremental {
		return false
	}
	w, ok := m.wins[id]
	return ok && w.gs.Len() > 0 && w.gs.Len() <= m.curBudget
}

// perGroupCap divides the live budget equally across the declared
// groups. It deliberately floors to zero, not one: with more groups
// than budget tuples there is no per-group allocation that respects the
// aggregate budget (the old floor-to-1 let the sample grow to
// KnownGroups tuples, silently exceeding b and disagreeing with the
// buffered path's ≤ b gate). Zero means "no reservoirs" — windows
// opened under it carry metadata only and are answered exactly.
func (m *GroupedManager) perGroupCap() int {
	return m.curBudget / m.cfg.KnownGroups
}

// open starts window id on a pooled window if one is waiting, with
// reservoirs at the per-group cap when groups are known and the cap
// allows any.
func (m *GroupedManager) open(id window.ID) *groupedWin {
	var w *groupedWin
	if n := len(m.pool); n > 0 {
		w, m.pool = m.pool[n-1], m.pool[:n-1]
	} else {
		w = &groupedWin{gs: m.dict.NewGroupStats()}
	}
	if m.cfg.KnownGroups == 0 || m.perGroupCap() <= 0 {
		w.known = nil
	} else if seed := sample.DeriveSeed(m.cfg.Seed, int64(id)); w.known == nil {
		w.known = m.dict.NewGroupReservoirs(m.perGroupCap(), seed, sample.AlgoL)
	} else {
		w.known.Reseed(m.perGroupCap(), seed)
	}
	m.wins[id] = w
	return w
}

// close retires window id once its result is out: its groups' ids go
// back to the dictionary and the window, cleared, to the pool.
func (m *GroupedManager) close(id window.ID) {
	w, ok := m.wins[id]
	if !ok {
		return
	}
	delete(m.wins, id)
	w.gs.Reset()
	if w.known != nil {
		w.known.Reset()
	}
	w.tainted = false
	m.pool = append(m.pool, w)
}

// syncControl applies the controller cell's published budget and
// shedding flag. Called once at every ingest entry point: two atomic
// loads in the common (unchanged) case.
func (m *GroupedManager) syncControl() {
	c := m.cfg.Cell
	if c == nil {
		return
	}
	if b := c.Budget(); b != m.curBudget {
		m.SetBudget(b)
	}
	m.SetShedding(c.Shedding())
}

// SetBudget retunes the live budget to b tuples, resizing every open
// window's per-group reservoirs (known path) so shrinking degrades
// per-group error evenly. A budget of zero (or a per-group cap of zero)
// drops the reservoirs: subsequent windows are metadata-only and
// answered exactly. Windows opened without reservoirs stay without them
// — a reservoir cannot be built retroactively.
func (m *GroupedManager) SetBudget(b int) {
	if b < 0 {
		b = 0
	}
	if b == m.curBudget {
		return
	}
	m.curBudget = b
	if m.cfg.KnownGroups > 0 {
		pg := m.perGroupCap()
		for _, w := range m.wins {
			if w.known == nil {
				continue
			}
			if pg <= 0 {
				w.known.Reset() // hands the groups' ids back
				w.known = nil
			} else {
				w.known.Resize(pg)
			}
		}
	}
	if m.shed && !m.canShed() {
		m.shed = false
	}
	m.cfg.Metrics.BudgetTuples.Set(int64(b))
}

// canShed reports whether shedding is meaningful right now: only the
// known-groups path archives tuples (the buffered path has nothing to
// skip), and only while reservoirs exist to answer from afterwards.
func (m *GroupedManager) canShed() bool {
	return m.arc != nil && m.cfg.KnownGroups > 0 && m.perGroupCap() > 0
}

// SetShedding turns archive-write shedding on or off. Refused when the
// manager has no archive or no reservoir capacity — shedding with no
// sample to fall back on would leave windows unanswerable.
func (m *GroupedManager) SetShedding(on bool) {
	m.shed = on && m.canShed()
}

// OnTuple implements Manager: a batch of one.
func (m *GroupedManager) OnTuple(t tuple.Tuple) ([]Result, error) {
	row := [1]tuple.Tuple{t}
	return m.OnTupleBatch(row[:])
}

// OnTupleBatch implements BatchManager: the rows' positions and values
// are read once into two columns and handed to the kernel, which reads
// the keys where it needs them.
func (m *GroupedManager) OnTupleBatch(rows []tuple.Tuple) ([]Result, error) {
	m.syncControl()
	m.scr.read(rows, m.lc, m.cfg.Value)
	return m.ingestRun(m.scr.pos, m.scr.vals, rows, nil, nil)
}

// ingestRun is the manager's one ingest kernel, the shape of
// ScalarManager.ingestRun: ts, vals and rows are a batch's positions,
// aggregated values and tuples, index-aligned, and codes with dict its
// dictionary-coded key column, or nil for a row batch, whose keys KeyBy
// reads. Spec.EachRun cuts the batch into runs that share one window
// assignment; per run the lifecycle admits it or drops it as late, the
// group ids of an admitted run are resolved once — so a late run never
// assigns a dictionary id, and a key is hashed once however many
// windows it falls into — each open window folds the run in arrival
// order, and the run goes to the buffer (unknown groups) or the archive
// (known groups). A count-domain window completes exactly at the end of
// a run, so there the kernel fires after each run.
func (m *GroupedManager) ingestRun(ts []int64, vals []float64, rows []tuple.Tuple, codes []int32, dict []string) ([]Result, error) {
	count := m.cfg.Spec.Domain == window.CountDomain
	var out []Result
	var err error
	late0 := m.lc.Late()
	m.cfg.Spec.EachRun(ts, func(i0, i1 int, lo, hi window.ID) {
		if err != nil {
			return
		}
		first, ok := m.lc.Admit(ts[i0:i1], lo, hi)
		if !ok {
			return // late: neither folded nor archived
		}
		if m.buf != nil && first < 0 {
			// The buffered path holds no metadata for the windows that
			// start before position 0 and answers them from the buffer,
			// exactly. Folding them changes their Mode, which no PR that
			// promises identical results can do (DESIGN.md §20).
			first = 0
		}
		if first <= hi {
			ids := m.groupIDs(rows[i0:i1], codes, i0, dict)
			run := vals[i0:i1]
			for id := first; id <= hi; id++ {
				w, ok := m.wins[id] // once per run: the map will do
				if !ok {
					w = m.open(id)
				}
				for i, gid := range ids {
					w.gs.AddID(gid, run[i])
				}
				if w.known != nil {
					for i, gid := range ids {
						w.known.AddID(gid, run[i])
					}
				}
				if m.shed {
					w.tainted = true
				}
			}
		}
		var rs []Result
		switch {
		case m.buf != nil:
			var completes []window.Complete
			completes, err = m.buf.AddRun(ts[i0:i1], rows[i0:i1])
			if len(completes) > 0 { // count-domain windows close on arrival
				rs = m.produceBuffered(completes, 0)
			}
		case m.shed:
			// Load shedding: skip the archive write — the saturating
			// per-tuple cost under overload. Group metadata and the
			// reservoirs above stay exact/uniform; only the exact
			// fallback is forfeited (windows were tainted above).
			m.sheds += int64(i1 - i0)
			m.cfg.Metrics.TuplesShed.Add(int64(i1 - i0))
		default:
			err = m.arc.addRun(int64(hi), ts[i0:i1], rows[i0:i1])
		}
		if count && m.arc != nil && err == nil {
			rs, err = m.fireKnown(m.lc.Seq())
		}
		out = append(out, rs...)
	})
	for _, c := range m.scr.mapped {
		m.scr.codeIDs[c] = 0 // all zero again for the next batch
	}
	m.scr.mapped = m.scr.mapped[:0]
	if m.cfg.countIngest(len(ts), m.lc.Late()-late0) {
		m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	}
	return out, err
}

// groupIDs resolves the group of each row of an admitted run to its id
// in the manager's dictionary: the one hash of a row's key, or, for a
// column batch (codes are the whole batch's, the run starts at i0), one
// hash of each distinct code of the batch and an index after that.
func (m *GroupedManager) groupIDs(run []tuple.Tuple, codes []int32, i0 int, dict []string) []uint32 {
	ids := slices.Grow(m.scr.ids[:0], len(run))[:len(run)]
	m.scr.ids = ids
	if codes == nil {
		for i := range run {
			ids[i] = m.dict.ID(m.cfg.KeyBy(run[i]))
		}
		return ids
	}
	for i, c := range codes[i0 : i0+len(run)] {
		if m.scr.codeIDs[c] == 0 {
			m.scr.codeIDs[c] = m.dict.ID(dict[c]) + 1
			m.scr.mapped = append(m.scr.mapped, c)
		}
		ids[i] = m.scr.codeIDs[c] - 1
	}
	return ids
}

// OnWatermark implements Manager.
func (m *GroupedManager) OnWatermark(wm int64) ([]Result, error) {
	if m.cfg.Spec.Domain == window.CountDomain {
		return nil, nil
	}
	if m.arc != nil {
		return m.fireKnown(wm)
	}
	t0 := m.now()
	completes, err := m.buf.OnWatermark(wm)
	if err != nil {
		return nil, err
	}
	if len(completes) == 0 {
		return nil, nil
	}
	// The single-buffer trigger scan (collect + evict) just ran for
	// all fired windows at once; attribute its cost evenly.
	scanShare := m.now().Sub(t0) / time.Duration(len(completes))
	return m.produceBuffered(completes, scanShare), nil
}

// ---- arrival-sampled path (known groups) ----

func (m *GroupedManager) fireKnown(wm int64) ([]Result, error) {
	first, last, ok := m.lc.Complete(wm)
	if !ok {
		return nil, nil
	}
	var out []Result
	for _, id := range window.IDsIn(m.wins, first, last) {
		r, err := m.produceKnown(id)
		if err != nil {
			return nil, err
		}
		if r != nil {
			out = append(out, *r)
		}
		m.close(id)
	}
	start, _ := m.cfg.Spec.Bounds(m.lc.NextOpen())
	if err := m.arc.evictBefore(start); err != nil {
		return nil, err
	}
	m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	return out, nil
}

func (m *GroupedManager) produceKnown(id window.ID) (*Result, error) {
	w, ok := m.wins[id]
	if !ok {
		return nil, nil // window received no tuples
	}
	t0 := m.now()
	startPos, endPos := m.cfg.Spec.Bounds(id)
	res := Result{
		WindowID: id, Start: startPos, End: endPos, N: w.gs.Total(),
		Epsilon: m.cfg.Epsilon, Confidence: m.cfg.Confidence, Budget: m.curBudget,
	}

	var estErr float64
	estOK := false
	if w.known != nil {
		alloc := make(map[string]int, w.known.Len())
		w.known.Each(func(key string, r *sample.Reservoir) { alloc[key] = r.Len() })
		state := GroupedState{
			Groups: w.gs, Alloc: alloc, N: res.N,
			Epsilon: m.cfg.Epsilon, Confidence: m.cfg.Confidence, Agg: m.cfg.Agg,
		}
		estErr, estOK = m.est(state)
	}
	switch {
	case estOK && estErr <= m.cfg.Epsilon:
		// The stratified sample was built at tuple arrival: O(b). A
		// shed (tainted) window lands here too when its bound passes —
		// the contract is met and the shed stays invisible.
		res.Mode = ModeSampled
		res.EstError = estErr
		m.fromReservoirs(&res, w.known)
	case w.tainted:
		// The accuracy check failed but shedding skipped archive
		// writes for this window: its pane set in S is incomplete, so
		// the exact fetch is gone. Non-holistic operations are still
		// answered exactly from the per-group metadata (Welford state
		// is immune to shedding); holistic ones emit the best-effort
		// sample answer as ModeShed with the realized bound.
		if m.cfg.Agg.Incremental() && !m.cfg.DisableIncremental {
			res.Mode = ModeIncremental
			m.fromMoments(&res, w.gs)
			res.SampleN = int(res.N)
		} else {
			m.cfg.Metrics.EstimationFailures.Add(1)
			res.Mode = ModeShed
			if estOK {
				res.EstError = estErr
			} else {
				res.EstError = math.Inf(1)
			}
			if w.known != nil {
				m.fromReservoirs(&res, w.known)
			} else {
				// Degenerate corner: budget collapsed to zero after the
				// window was tainted. Metadata is all that is left.
				m.fromMoments(&res, w.gs)
			}
		}
	default:
		m.cfg.Metrics.EstimationFailures.Add(1)
		ts, err := m.arc.fetch(startPos, endPos)
		if err != nil {
			return nil, fmt.Errorf("core: grouped exact fallback window %d: %w", id, err)
		}
		m.exact(&res, ts)
		res.N = int64(len(ts))
		res.FetchedFromStore = true
	}
	m.cfg.countFire(&res, m.now().Sub(t0))
	return &res, nil
}

// fromMoments answers every group of res from its frequency/variance
// state, exactly.
func (m *GroupedManager) fromMoments(res *Result, gs *sample.GroupStats) {
	res.Groups = make(map[string]float64, gs.Len())
	gs.Each(func(key string, wf *stats.Welford) {
		v, _ := m.cfg.Agg.FromWelford(wf)
		res.Groups[key] = v
	})
}

// fromReservoirs answers every group of res from the stratified sample
// built at tuple arrival.
func (m *GroupedManager) fromReservoirs(res *Result, known *sample.GroupReservoirs) {
	res.Groups = make(map[string]float64, known.Len())
	res.SampleN = 0
	known.Each(func(key string, r *sample.Reservoir) {
		res.Groups[key] = m.cfg.Agg.Estimate(r.Items(), r.Seen())
		res.SampleN += r.Len()
	})
}

// keysVals projects tuples onto parallel key and value slices.
func (m *GroupedManager) keysVals(ts []tuple.Tuple) ([]string, []float64) {
	keys := make([]string, len(ts))
	vals := make([]float64, len(ts))
	for i, t := range ts {
		keys[i] = m.cfg.KeyBy(t)
		vals[i] = m.cfg.Value(t)
	}
	return keys, vals
}

// exact answers res with the full grouped aggregate over the window's
// tuples (cost identical to the exact engine).
func (m *GroupedManager) exact(res *Result, ts []tuple.Tuple) {
	keys, vals := m.keysVals(ts)
	res.Mode = ModeExact
	res.Groups = agg.ComputeGrouped(keys, vals, m.cfg.Agg)
	res.SampleN = len(vals)
}

// ---- buffered path (unknown groups) ----

func (m *GroupedManager) produceBuffered(completes []window.Complete, scanShare time.Duration) []Result {
	out := make([]Result, 0, len(completes))
	for _, c := range completes {
		r := m.produceFromWindow(c, scanShare)
		out = append(out, r)
		m.close(c.ID)
	}
	m.cfg.Metrics.MemBytes.Set(int64(m.MemUsage()))
	return out
}

func (m *GroupedManager) produceFromWindow(c window.Complete, scanShare time.Duration) Result {
	t0 := m.now()
	res := Result{
		WindowID:   c.ID,
		Start:      c.Start,
		End:        c.End,
		N:          int64(len(c.Tuples)),
		Epsilon:    m.cfg.Epsilon,
		Confidence: m.cfg.Confidence,
		Budget:     m.curBudget,
	}
	w := m.wins[c.ID]
	if c.Uncollected && w != nil {
		res.N = w.gs.Total()
	}

	accelerated := false
	if m.incrementalApplies(c.ID) {
		// Non-holistic grouped fast path: the per-group frequency
		// and variance SPEAr keeps in the budget (§4.1) already
		// determine count/sum/mean/variance exactly, so R_w comes
		// straight from the metadata in O(‖S_w‖) — no sample, no
		// second look at the window's tuples. This is the grouped
		// form of the incremental optimization SPEAr applies to
		// non-holistic scalar operations.
		res.Mode = ModeIncremental
		m.fromMoments(&res, w.gs)
		res.SampleN = int(res.N)
		accelerated = true
	}
	if !accelerated && w != nil && w.gs.Len() > 0 && w.gs.Len() <= m.curBudget {
		alloc := w.gs.CongressAllocate(m.curBudget)
		state := GroupedState{
			Groups: w.gs, Alloc: alloc, N: res.N,
			Epsilon: m.cfg.Epsilon, Confidence: m.cfg.Confidence, Agg: m.cfg.Agg,
		}
		if estErr, ok := m.est(state); ok && estErr <= m.cfg.Epsilon {
			// Build the stratified sample in one pass over the
			// staged window (the scan the single-buffer design
			// already paid for evicting) and aggregate only the
			// sample.
			res.Mode = ModeSampled
			res.EstError = estErr
			keys, vals := m.keysVals(c.Tuples)
			strata := sample.StratifiedFromBuffer(keys, vals, alloc, sample.DeriveSeed(m.cfg.Seed, int64(c.ID)))
			res.Groups = make(map[string]float64, len(strata))
			sn := 0
			for key, sv := range strata {
				res.Groups[key] = m.cfg.Agg.Estimate(sv, w.gs.Get(key).Count())
				sn += len(sv)
			}
			res.SampleN = sn
			accelerated = true
		} else {
			m.cfg.Metrics.EstimationFailures.Add(1)
		}
	}

	if !accelerated {
		// Normal processing: the whole window.
		m.exact(&res, c.Tuples)
	}
	m.cfg.countFire(&res, m.now().Sub(t0)+scanShare)
	return res
}

// PrefetchWatermark implements the engine's Prefetcher hook for the
// arrival-sampled (known groups) path: warm the spill plane's cache
// with the panes of the next SpillAhead windows. The buffered path
// keeps its window in memory (spilling only past the budget) and does
// not prefetch.
func (m *GroupedManager) PrefetchWatermark(wm int64) {
	m.arc.prefetchAhead(m.lc, wm, m.cfg.SpillAhead)
}

// MemUsage implements Manager: the per-window group metadata held in
// the budget, plus the tuple buffer (unknown groups) or transient
// archive chunks (known groups).
func (m *GroupedManager) MemUsage() int { return m.BudgetMemUsage() + m.arc.memUsage() }

// BudgetMemUsage is the memory used to produce results: the per-window
// group metadata and samples charged against b, plus the tuple buffer
// when the design requires one (unknown groups). Archive write-behind
// chunks are excluded, as in ScalarManager.
func (m *GroupedManager) BudgetMemUsage() int {
	n := 0
	if m.buf != nil {
		n += m.buf.MemUsage()
	}
	for _, w := range m.wins {
		n += w.gs.MemSize()
		if w.known != nil {
			n += w.known.MemSize()
		}
	}
	return n
}

// LateDropped returns the number of dropped late tuples.
func (m *GroupedManager) LateDropped() int64 { return m.lc.Late() }

// ensure interface compliance.
var (
	_ Manager = (*ScalarManager)(nil)
	_ Manager = (*GroupedManager)(nil)
)
