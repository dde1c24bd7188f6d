package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"spear/internal/agg"
	"spear/internal/tuple"
	"spear/internal/window"
)

// shell is the window manager of §4.1 (Algs. 1 and 2) less what depends
// on what a window holds: the budget and the shedding flag the
// controller steers, the window lifecycle, the archive in S, the ingest
// kernel and the fire loop, and the snapshot header (snapshot.go). Every
// manager embeds it and supplies the rest as its shape: SPEAr's scalar
// and grouped managers, and the baselines, which are the same lifecycle
// holding a buffer or an accumulator (baseline.go). The shell calls the
// shape once per run or per window, never per tuple.
type shell struct {
	cfg       Config
	arc       *archive // nil where no window needs its tuples back: decided at construction
	lc        window.Lifecycle
	cols      rowColumns
	curBudget int  // the live tuple budget b: BudgetTuples at start, then the controller's
	shed      bool // archive writes currently shed (controller escalation)
	now       func() time.Time
	sh        shape // the manager that embeds the shell

	// A fire's exact answers, in storage reused across fires and
	// emptied when it returns: the window's tuples, staged or fetched,
	// and their values and keys.
	stage []tuple.Tuple
	vals  []float64
	keys  []string
}

// shape is a manager's form: its per-window state and the steps that
// fold into it, answer from it and retire it.
type shape interface {
	// fold adds an admitted run to every window it falls into.
	fold(r run)
	// held returns, ascending, the ids in [first, last] of the windows
	// that hold tuples, and the time spent staging them, of which each
	// window's ProcTime carries an equal share: 0 where nothing is staged.
	held(first, last window.ID) ([]window.ID, time.Duration)
	// produce answers window id into res, whose header is filled in: for
	// SPEAr, Alg. 2 through shell.answers and shell.fetch.
	produce(id window.ID, res *Result) error
	// close retires the window res answered.
	close(res Result)
	// resize applies a new curBudget to the open windows.
	resize()
	// capacity is the reservoir capacity a window opened now gets: 0
	// for none, and then no sample to answer a shed window from.
	capacity() int
	// BudgetMemUsage is the state held to produce results: what
	// Metrics.MemBytes reports, and what Fig. 7 shows flat at ≈b for
	// SPEAr while Storm's buffer grows with the window. It leaves out the
	// archive's chunk buffers (ArchiveChunk·overlap tuples whatever the
	// window), the cost of shipping tuples to S, as the paper does.
	BudgetMemUsage() int
	// format names the manager's kind and the snapshot tag it writes and
	// reads. appendWindows and readWindows are the snapshot's body after
	// the shell's header; readWindows returns what installs the decoded
	// state, or an error and nothing installed.
	format() (kind string, tag byte)
	appendWindows(dst []byte) []byte
	readWindows(rd *tuple.WireReader) (apply func(), err error)
}

// run is one run of an ingest batch as Spec.EachRun cuts it: positions
// ts sharing the window assignment [lo, hi], of which the lifecycle
// admitted windows first…hi, with their values and rows. taint marks a
// run whose archive write is shed.
type run struct {
	first, lo, hi window.ID
	ts            []int64
	vals          []float64
	rows          []tuple.Tuple
	taint         bool
}

// rowColumns is a row batch read once into the two columns an ingest
// kernel takes: positions and aggregated values. It holds nothing
// between calls.
type rowColumns struct {
	pos   []int64
	vals  []float64
	value func(tuple.Tuple) float64 // nil where the shape's fold reads no value: vals holds zeros
}

func (c *rowColumns) read(rows []tuple.Tuple, lc *window.Lifecycle) {
	n := len(rows)
	c.pos = slices.Grow(c.pos[:0], n)[:n]
	c.vals = slices.Grow(c.vals[:0], n)[:n]
	for i := range rows {
		c.pos[i] = lc.Pos(rows[i].Ts, i)
		if c.value != nil {
			c.vals[i] = c.value(rows[i])
		}
	}
}

// newShell returns the shell of a manager of shape sh for cfg, which has
// passed validate, with an archive where archives is set.
func newShell(cfg Config, sh shape, archives bool) shell {
	s := shell{cfg: cfg, lc: window.NewLifecycle(cfg.Spec), cols: rowColumns{value: cfg.Value}, curBudget: cfg.BudgetTuples, now: cfg.clock(), sh: sh}
	if archives {
		s.arc = newArchive(cfg.Store, cfg.Key, cfg.Spec, cfg.ArchiveChunk, cfg.DeferStoreDeletes)
	}
	cfg.Metrics.BudgetTuples.Set(int64(s.curBudget))
	return s
}

// syncControl pulls the controller cell's published budget and shedding
// state into the manager. Called at every ingest entry point — two
// atomic loads plus comparisons in the common no-change case; resizes
// happen only when the target actually moved, never inside a per-tuple
// loop.
func (s *shell) syncControl() {
	c := s.cfg.Cell
	if c == nil {
		return
	}
	if b := c.Budget(); b != s.curBudget {
		s.SetBudget(b)
	}
	s.SetShedding(c.Shedding())
}

// SetBudget applies a new tuple budget immediately: open windows'
// reservoirs are resized in place (a seeded uniform down-sample on
// shrink, so every sample stays a simple random sample of its window so
// far), and windows opened from here on start at the new capacity. A
// budget that leaves no reservoir drops the live samples — affected
// windows can only answer exactly — and ends shedding, which would
// leave them nothing to answer from. A window opened without a
// reservoir stays without one: admitting only the suffix of its stream
// would not be a uniform sample.
func (s *shell) SetBudget(b int) {
	b = max(b, 0)
	if b == s.curBudget {
		return
	}
	s.curBudget = b
	s.sh.resize()
	s.SetShedding(s.shed)
	s.cfg.Metrics.BudgetTuples.Set(int64(b))
}

// SetShedding turns archive-write shedding on or off (the controller
// goes through the cell and syncControl; tests and embedders call it
// directly). Refused where it means nothing: a query that archives
// nothing has no write to skip, and without reservoirs there is no
// sample to answer a shed window from.
func (s *shell) SetShedding(on bool) {
	s.shed = on && s.arc != nil && s.sh.capacity() > 0
}

// OnTupleBatch implements Manager (Alg. 1): the rows' positions and
// values are read once into two columns and handed to the kernel, which
// reads the keys where it needs them.
func (s *shell) OnTupleBatch(rows []tuple.Tuple) ([]Result, error) {
	s.syncControl()
	s.cols.read(rows, &s.lc)
	return s.ingestRun(s.cols.pos, s.cols.vals, rows)
}

// ingestRun is the manager's one ingest kernel (Alg. 1 over a batch,
// DESIGN.md §19): ts, vals and rows are a batch's positions, aggregated
// values and tuples, index-aligned. Spec.EachRun cuts the batch into
// runs that share one window assignment, so the assignment, the
// lifecycle's admission, the shape's fold and the archive append are
// paid per run; a late run is neither folded nor archived. A slice and a
// window see their tuples in arrival order wherever the batches were
// cut, so every value, ε̂_w and Mode is what a per-tuple loop produces.
// A count-domain window completes exactly at the end of a run (the next
// position has a different assignment), so there the kernel fires after
// each run.
func (s *shell) ingestRun(ts []int64, vals []float64, rows []tuple.Tuple) ([]Result, error) {
	count := s.cfg.Spec.Domain == window.CountDomain
	var out []Result
	var err error
	late0 := s.lc.Late()
	s.cfg.Spec.EachRun(ts, func(i0, i1 int, lo, hi window.ID) {
		if err != nil {
			return
		}
		first, ok := s.lc.Admit(ts[i0:i1], lo, hi)
		if !ok {
			return // late: neither folded nor archived
		}
		s.sh.fold(run{first: first, lo: lo, hi: hi, ts: ts[i0:i1], vals: vals[i0:i1], rows: rows[i0:i1], taint: s.shed})
		switch {
		case s.arc == nil:
			// No check can fail, so there is no fallback to archive for.
		case s.shed:
			// Load shedding: skip the archive write — the per-tuple cost
			// that saturates under overload — and keep only the in-budget
			// state. N stays exact and the samples uniform; what is lost
			// is the exact fallback of the windows the run spans, which
			// fold tainted.
			s.cfg.Metrics.TuplesShed.Add(int64(i1 - i0))
		default:
			err = s.arc.addRun(int64(hi), ts[i0:i1], rows[i0:i1])
		}
		if count && err == nil {
			var rs []Result
			rs, err = s.fire(s.lc.Seq())
			out = append(out, rs...)
		}
	})
	if s.cfg.countIngest(len(ts), s.lc.Late()-late0) {
		s.cfg.Metrics.MemBytes.Set(int64(s.sh.BudgetMemUsage()))
	}
	return out, err
}

// OnWatermark implements Manager (Alg. 2).
func (s *shell) OnWatermark(wm int64) ([]Result, error) {
	if s.cfg.Spec.Domain == window.CountDomain {
		return nil, nil
	}
	return s.fire(wm)
}

// fire answers the windows wm closes that hold tuples, in id order — a
// watermark after a gap in the stream costs the windows that exist, not
// the id range — and evicts what lies wholly before the oldest window
// still open.
func (s *shell) fire(wm int64) ([]Result, error) {
	first, last, ok := s.lc.Complete(wm)
	if !ok {
		return nil, nil
	}
	defer s.unstage()
	ids, staging := s.sh.held(first, last)
	share := staging / time.Duration(max(len(ids), 1))
	// Answered in place in out: no Result of its own escapes inside the timing.
	out := slices.Grow([]Result(nil), len(ids))
	for _, id := range ids {
		t0 := s.now()
		start, end := s.cfg.Spec.Bounds(id)
		out = append(out, Result{
			WindowID: id, Start: start, End: end,
			Epsilon: s.cfg.Epsilon, Confidence: s.cfg.Confidence, Budget: s.curBudget,
		})
		res := &out[len(out)-1]
		if err := s.sh.produce(id, res); err != nil {
			return nil, fmt.Errorf("core: window %d: %w", id, err)
		}
		s.cfg.countFire(res, s.now().Sub(t0)+share)
		s.sh.close(*res)
	}
	start, _ := s.cfg.Spec.Bounds(s.lc.NextOpen())
	if err := s.arc.evictBefore(start); err != nil {
		return nil, err
	}
	s.cfg.Metrics.MemBytes.Set(int64(s.sh.BudgetMemUsage()))
	return out, nil
}

// answers books Alg. 2's decision for a window whose accuracy check gave
// estErr — ok false where the budget held nothing to check with, and
// checked false where no check was due, so that its failure is not
// counted — and reports whether the window is answered from what b
// holds: ModeSampled where ε̂_w ≤ ε, or, where the check failed but
// shedding left the window's archive incomplete (tainted), ModeShed
// with the realized bound, possibly above ε: the ε guarantee traded for
// latency. False leaves the exact fallback: fetch.
func (s *shell) answers(res *Result, estErr float64, ok, checked, tainted bool) bool {
	if ok && estErr <= s.cfg.Epsilon {
		res.Mode, res.EstError = ModeSampled, estErr
		return true
	}
	if checked {
		s.cfg.Metrics.EstimationFailures.Add(1)
	}
	if !tainted {
		return false
	}
	res.Mode, res.EstError = ModeShed, estErr
	if !ok {
		res.EstError = math.Inf(1)
	}
	return true
}

// unstage empties the fire's scratch, so that no evicted tuple stays
// pinned.
func (s *shell) unstage() {
	clear(s.stage)
	clear(s.keys)
	s.stage, s.vals, s.keys = s.stage[:0], s.vals[:0], s.keys[:0]
}

// read reads the values of rows, and their keys where the query is
// grouped, into the scratch, in order.
func (s *shell) read(rows []tuple.Tuple) {
	n := len(rows)
	s.vals = slices.Grow(s.vals[:0], n)[:n]
	for i, t := range rows {
		s.vals[i] = s.cfg.Value(t)
	}
	if s.cfg.KeyBy != nil {
		s.keys = slices.Grow(s.keys[:0], n)[:n]
		for i, t := range rows {
			s.keys[i] = s.cfg.KeyBy(t)
		}
	}
}

// exact answers res from rows, the whole window: the one exact
// evaluator of every manager, for Alg. 2's fallback and for Storm.
func (s *shell) exact(res *Result, rows []tuple.Tuple) {
	res.Mode, res.N, res.SampleN = ModeExact, int64(len(rows)), len(rows)
	s.read(rows)
	switch {
	case s.cfg.Custom != nil:
		res.Scalar = s.cfg.Custom.Compute(s.vals, res.N)
	case s.cfg.KeyBy != nil:
		res.Groups = agg.ComputeGrouped(s.keys, s.vals, s.cfg.Agg)
	default:
		res.Scalar = s.cfg.Agg.Compute(s.vals)
	}
}

// fetch is the exact fallback, Alg. 2 line 5: the window's tuples read
// back from S into the stage and answered whole — performance identical
// to normal execution plus the failed check.
func (s *shell) fetch(res *Result) error {
	var err error
	if s.stage, err = s.arc.fetch(s.stage, res.Start, res.End); err != nil {
		return err
	}
	res.FetchedFromStore = true
	s.exact(res, s.stage)
	return nil
}

// PrefetchWatermark implements the engine's Prefetcher hook: after the
// watermark wm fired its windows, warm the spill plane's cache with the
// panes of the next SpillAhead windows, so that if their accuracy check
// fails the exact fallback reads from memory instead of S. Results are
// unaffected — prefetching only moves bytes earlier. Without an archive
// there is nothing to read ahead.
func (s *shell) PrefetchWatermark(wm int64) {
	s.arc.prefetchAhead(&s.lc, wm, s.cfg.SpillAhead)
}

// KeepsRows reports whether the archive holds ingested rows past the
// ingest call (KeepsRows in result.go); a shape that does overrides it.
func (s *shell) KeepsRows() bool { return s.arc != nil }

// LateDropped returns the number of dropped late tuples: test support
// for the kernel identity tests (kernelTrace) and the late-tuple tests
// of both managers.
func (s *shell) LateDropped() int64 { return s.lc.Late() }

// RewindStore reconciles archive panes with the restored state; a
// manager without an archive keeps nothing in S.
func (s *shell) RewindStore() error { return s.arc.rewind() }

// TakeDeferredDeletes returns and clears deferred pane deletions.
func (s *shell) TakeDeferredDeletes() []string { return s.arc.takeDeferred() }
