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
// operations (§4.1 "Grouped"). Per open window it keeps in the budget b
// each group's frequency and moments and, with the group count declared
// at submission (Config.KnownGroups > 0), a reservoir per group filled
// at arrival. No window buffers its tuples. As on the scalar path
// (DESIGN.md §8, deviation 7) every admitted tuple goes to secondary
// storage S unless the moments answer every window (non-holistic,
// groups unknown, DisableIncremental off): then S is never touched. A
// fire answers from the moments; from the reservoirs, O(b) with no scan;
// or, groups unknown and b holding a slot per group, from a stratified
// sample of the window fetched from S. Where ε̂_w > ε or b cannot hold
// the groups, the window is fetched from S and processed whole.
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

	arc *archive // nil when the moments answer every window
	lc  window.Lifecycle

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
		lc:        window.NewLifecycle(cfg.Spec),
		dict:      sample.NewKeyDict(),
		wins:      make(map[window.ID]*groupedWin),
		now:       cfg.clock(),
	}
	cfg.Metrics.BudgetTuples.Set(int64(m.curBudget))
	if cfg.KnownGroups > 0 || !cfg.Agg.Incremental() || cfg.DisableIncremental {
		// A window the moments do not answer can need its tuples back.
		m.arc = newArchive(cfg.Store, cfg.Key, cfg.Spec, cfg.ArchiveChunk, cfg.DeferStoreDeletes)
	}
	return m, nil
}

// perGroupCap divides the live budget equally across the declared
// groups. It deliberately floors to zero, not one: with more groups
// than budget tuples there is no per-group allocation that respects the
// aggregate budget (the old floor-to-1 let the sample grow to
// KnownGroups tuples, silently exceeding b and disagreeing with the
// unknown-groups path's ≤ b gate). Zero means "no reservoirs" — windows
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

// canShed reports whether shedding is meaningful right now: only while
// reservoirs exist to answer from once archive writes were skipped,
// i.e. on the known-groups path with a per-group capacity.
func (m *GroupedManager) canShed() bool {
	return m.cfg.KnownGroups > 0 && m.perGroupCap() > 0
}

// SetShedding turns archive-write shedding on or off. Refused where no
// reservoir could answer afterwards — groups unknown, or no reservoir
// capacity: shedding with no sample to fall back on would leave windows
// unanswerable.
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
	m.scr.read(rows, &m.lc, m.cfg.Value)
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
// order, and the run goes to the archive, if the manager has one. A
// count-domain window completes exactly at the end of a run, so there
// the kernel fires after each run.
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
		switch {
		case m.arc == nil:
			// The moments answer every window: nothing to fetch.
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
		if count && err == nil {
			var rs []Result
			rs, err = m.fire(m.lc.Seq())
			out = append(out, rs...)
		}
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
	return m.fire(wm)
}

// fire answers the open windows wm closes, in id order, and evicts what
// lies wholly before the oldest window still open.
func (m *GroupedManager) fire(wm int64) ([]Result, error) {
	first, last, ok := m.lc.Complete(wm)
	if !ok {
		return nil, nil
	}
	var out []Result
	for _, id := range window.IDsIn(m.wins, first, last) {
		r, err := m.produce(id)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		m.close(id)
	}
	start, _ := m.cfg.Spec.Bounds(m.lc.NextOpen())
	if err := m.arc.evictBefore(start); err != nil {
		return nil, err
	}
	m.cfg.Metrics.MemBytes.Set(int64(m.BudgetMemUsage()))
	return out, nil
}

// produce runs Alg. 2 for window id.
func (m *GroupedManager) produce(id window.ID) (Result, error) {
	w := m.wins[id]
	t0 := m.now()
	start, end := m.cfg.Spec.Bounds(id)
	res := Result{
		WindowID: id, Start: start, End: end, N: w.gs.Total(),
		Epsilon: m.cfg.Epsilon, Confidence: m.cfg.Confidence, Budget: m.curBudget,
	}
	if m.arc == nil {
		// The per-group frequency and variance SPEAr keeps in b (§4.1)
		// determine count/sum/mean/variance exactly: R_w in O(‖S_w‖), the
		// grouped form of the scalar incremental path. Where b cannot
		// hold the groups "SPEAr reverts back to normal processing": the
		// same moments, exact up to summation order, labelled so.
		res.Mode = ModeIncremental
		if w.gs.Len() > m.curBudget {
			res.Mode = ModeExact
		}
		m.fromMoments(&res, w.gs)
		res.SampleN = int(res.N)
		m.cfg.countFire(&res, m.now().Sub(t0))
		return res, nil
	}

	// The stratified sample's allocation: the reservoirs' sizes where
	// they were filled at arrival, or the congressional allocation over
	// the frequencies where b holds a slot per group.
	var alloc map[string]int
	switch {
	case w.known != nil:
		alloc = make(map[string]int, w.known.Len())
		w.known.Each(func(key string, r *sample.Reservoir) { alloc[key] = r.Len() })
	case m.cfg.KnownGroups == 0 && w.gs.Len() <= m.curBudget:
		alloc = w.gs.CongressAllocate(m.curBudget)
	}
	var estErr float64
	estOK := false
	if alloc != nil {
		estErr, estOK = m.est(GroupedState{
			Groups: w.gs, Alloc: alloc, N: res.N,
			Epsilon: m.cfg.Epsilon, Confidence: m.cfg.Confidence, Agg: m.cfg.Agg,
		})
	}
	var err error
	switch {
	case estOK && estErr <= m.cfg.Epsilon:
		// Only the stratified sample is aggregated: built at arrival,
		// O(b), or, groups unknown, in one pass over the window fetched
		// from S. A shed (tainted) window lands here too when its bound
		// passes — the contract is met and the shed stays invisible.
		res.Mode = ModeSampled
		res.EstError = estErr
		if w.known != nil {
			m.fromReservoirs(&res, w.known)
		} else {
			err = m.fromStrata(&res, w.gs, alloc)
		}
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
		// A check that ran and failed, or the known path, which always
		// checks: ε̂_w > ε. Process the whole window from S (Alg. 2
		// line 5).
		if alloc != nil || m.cfg.KnownGroups > 0 {
			m.cfg.Metrics.EstimationFailures.Add(1)
		}
		err = m.exact(&res)
	}
	if err != nil {
		return res, fmt.Errorf("core: grouped window %d: %w", id, err)
	}
	m.cfg.countFire(&res, m.now().Sub(t0))
	return res, nil
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

// fetch returns the keys and values of the archived tuples of
// [start, end), in archive order.
func (m *GroupedManager) fetch(start, end int64) ([]string, []float64, error) {
	ts, err := m.arc.fetch(start, end)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, len(ts))
	vals := make([]float64, len(ts))
	for i, t := range ts {
		keys[i] = m.cfg.KeyBy(t)
		vals[i] = m.cfg.Value(t)
	}
	return keys, vals, nil
}

// fromStrata answers every group of res from a stratified sample of the
// window [res.Start, res.End) drawn to alloc.
func (m *GroupedManager) fromStrata(res *Result, gs *sample.GroupStats, alloc map[string]int) error {
	keys, vals, err := m.fetch(res.Start, res.End)
	if err != nil {
		return err
	}
	strata := sample.StratifiedFromBuffer(keys, vals, alloc, sample.DeriveSeed(m.cfg.Seed, int64(res.WindowID)))
	res.Groups = make(map[string]float64, len(strata))
	res.SampleN = 0
	for key, sv := range strata {
		res.Groups[key] = m.cfg.Agg.Estimate(sv, gs.Get(key).Count())
		res.SampleN += len(sv)
	}
	return nil
}

// exact answers res with the full grouped aggregate over the window's
// tuples fetched from S (cost identical to the exact engine).
func (m *GroupedManager) exact(res *Result) error {
	keys, vals, err := m.fetch(res.Start, res.End)
	if err != nil {
		return err
	}
	res.Mode = ModeExact
	res.Groups = agg.ComputeGrouped(keys, vals, m.cfg.Agg)
	res.N = int64(len(vals))
	res.SampleN = len(vals)
	res.FetchedFromStore = true
	return nil
}

// PrefetchWatermark implements the engine's Prefetcher hook: warm the
// spill plane's cache with the panes of the next SpillAhead windows.
// Without an archive there is nothing to read ahead.
func (m *GroupedManager) PrefetchWatermark(wm int64) {
	m.arc.prefetchAhead(&m.lc, wm, m.cfg.SpillAhead)
}

// KeepsRows reports whether the manager holds ingested rows past the
// ingest call: its archive does (KeepsRows in result.go).
func (m *GroupedManager) KeepsRows() bool { return m.arc != nil }

// MemUsage implements Manager: the per-window group metadata held in
// the budget plus the transient archive chunks.
func (m *GroupedManager) MemUsage() int { return m.BudgetMemUsage() + m.arc.memUsage() }

// BudgetMemUsage is the memory used to produce results: the per-window
// group metadata and samples charged against b. Archive write-behind
// chunks are excluded, as in ScalarManager.
func (m *GroupedManager) BudgetMemUsage() int {
	n := 0
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
