package core

import (
	"fmt"
	"slices"
	"time"

	"spear/internal/agg"
	"spear/internal/sample"
	"spear/internal/stats"
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
//
// Ingest, fire, the controls and the snapshot header are the shell's;
// this file holds the grouped shape.
type GroupedManager struct {
	shell
	est GroupedEstimator

	// Grouped state (DESIGN.md, "Grouped state layout"): one key
	// dictionary for the manager, and per open window arrays indexed
	// through its ids, so ingest hashes a tuple's key once and then
	// indexes.
	dict *sample.KeyDict
	wins ordered[window.ID, *groupedWin]
	// pool holds the windows that fired, cleared, with their arrays and
	// sample storage, for the windows that open next.
	pool []*groupedWin
	// ids is the group id of each row of the run being folded, kept
	// from call to call so as not to allocate.
	ids []uint32
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
	m := &GroupedManager{est: cfg.GroupedEstimator, dict: sample.NewKeyDict()}
	if m.est == nil {
		m.est = DefaultGroupedEstimate
	}
	m.shell = newShell(cfg, m, cfg.archives())
	return m, nil
}

// capacity divides the live budget equally across the declared groups.
// It deliberately floors to zero, not one: with more groups than budget
// tuples there is no per-group allocation that respects the aggregate
// budget (the old floor-to-1 let the sample grow to KnownGroups tuples,
// silently exceeding b and disagreeing with the unknown-groups path's
// ≤ b gate). Zero means "no reservoirs" — windows opened under it carry
// metadata only and are answered exactly — as it does for groups
// unknown.
func (m *GroupedManager) capacity() int {
	if m.cfg.KnownGroups == 0 {
		return 0
	}
	return m.curBudget / m.cfg.KnownGroups
}

// resize resizes every open window's per-group reservoirs so shrinking
// degrades per-group error evenly, or drops them where the per-group
// capacity is zero.
func (m *GroupedManager) resize() {
	pg := m.capacity()
	for _, w := range m.wins.vals {
		switch {
		case w.known == nil:
		case pg <= 0:
			w.known.Reset() // hands the groups' ids back
			w.known = nil
		default:
			w.known.Resize(pg)
		}
	}
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
	if pg := m.capacity(); pg <= 0 {
		w.known = nil
	} else if seed := sample.DeriveSeed(m.cfg.Seed, int64(id)); w.known == nil {
		w.known = m.dict.NewGroupReservoirs(pg, seed)
	} else {
		w.known.Reseed(pg, seed)
	}
	return w
}

// close retires the window res answered: its groups' ids go back to the
// dictionary and the window, cleared, to the pool.
func (m *GroupedManager) close(res Result) {
	w := *m.wins.find(res.WindowID)
	m.wins.dropBefore(res.WindowID + 1)
	w.gs.Reset()
	if w.known != nil {
		w.known.Reset()
	}
	w.tainted = false
	m.pool = append(m.pool, w)
}

// fold resolves the group ids of an admitted run once — so a late run
// never assigns a dictionary id, and a key is hashed once however many
// windows it falls into — and each open window folds the run in arrival
// order.
func (m *GroupedManager) fold(r run) {
	ids := m.groupIDs(r)
	for _, w := range m.wins.fill(r.first, r.hi, m.open) {
		for i, gid := range ids {
			w.gs.AddID(gid, r.vals[i])
		}
		if w.known != nil {
			for i, gid := range ids {
				w.known.AddID(gid, r.vals[i])
			}
		}
		if r.taint {
			w.tainted = true
		}
	}
}

// groupIDs resolves the group of each row of a run to its id in the
// manager's dictionary: the one hash of a row's key.
func (m *GroupedManager) groupIDs(r run) []uint32 {
	m.ids = slices.Grow(m.ids[:0], len(r.rows))[:len(r.rows)]
	for i := range r.rows {
		m.ids[i] = m.dict.ID(m.cfg.KeyBy(r.rows[i]))
	}
	return m.ids
}

func (m *GroupedManager) held(first, last window.ID) ([]window.ID, time.Duration) {
	ids, _ := m.wins.span(first, last+1)
	return ids, 0
}

// produce runs Alg. 2 for window id.
func (m *GroupedManager) produce(id window.ID, res *Result) error {
	w := *m.wins.find(id)
	res.N = w.gs.Total()
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
		m.fromMoments(res, w.gs)
		res.SampleN = int(res.N)
		return nil
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
	if w.tainted && !(estOK && estErr <= m.cfg.Epsilon) && m.cfg.Agg.Incremental() && !m.cfg.DisableIncremental {
		// The check failed and shedding cost the window its exact
		// fetch, but a non-holistic operation is still answered exactly
		// from the per-group metadata: Welford state is immune to
		// shedding.
		res.Mode = ModeIncremental
		m.fromMoments(res, w.gs)
		res.SampleN = int(res.N)
		return nil
	}
	// A failure counts where a check ran, and on the known path, which
	// always checks.
	if m.answers(res, estErr, estOK, alloc != nil || m.cfg.KnownGroups > 0, w.tainted) {
		// From the stratified sample: built at arrival, O(b), or, groups
		// unknown, in one pass over the window fetched from S. A shed
		// window's bound may have passed — the contract is met and the
		// shed stays invisible — or not: then it is answered from the
		// reservoirs it has or, where the budget collapsed to zero after
		// it was tainted, from the metadata, all that is left.
		switch {
		case w.known != nil:
			m.fromReservoirs(res, w.known)
		case alloc != nil:
			return m.fromStrata(res, w.gs, alloc)
		default:
			m.fromMoments(res, w.gs)
		}
		return nil
	}
	rows, err := m.fetch(res)
	if err != nil {
		return err
	}
	keys, vals := m.columns(rows)
	res.Groups = agg.ComputeGrouped(keys, vals, m.cfg.Agg)
	return nil
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

// fromStrata answers every group of res from a stratified sample of the
// window [res.Start, res.End), fetched from S in archive order, drawn to
// alloc.
func (m *GroupedManager) fromStrata(res *Result, gs *sample.GroupStats, alloc map[string]int) error {
	rows, err := m.arc.fetch(res.Start, res.End)
	if err != nil {
		return err
	}
	keys, vals := m.columns(rows)
	strata := sample.StratifiedFromBuffer(keys, vals, alloc, sample.DeriveSeed(m.cfg.Seed, int64(res.WindowID)))
	res.Groups = make(map[string]float64, len(strata))
	res.SampleN = 0
	for key, sv := range strata {
		res.Groups[key] = m.cfg.Agg.Estimate(sv, gs.Get(key).Count())
		res.SampleN += len(sv)
	}
	return nil
}

// BudgetMemUsage is the memory used to produce results: the per-window
// group metadata and samples charged against b (shape.BudgetMemUsage
// says what it leaves out).
func (m *GroupedManager) BudgetMemUsage() int {
	n := 0
	for _, w := range m.wins.vals {
		n += w.gs.MemSize()
		if w.known != nil {
			n += w.known.MemSize()
		}
	}
	return n
}

// ensure interface compliance.
var _ Manager = (*GroupedManager)(nil)
