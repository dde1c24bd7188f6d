// Package core implements SPEAr itself: the approximate window managers
// that realize the paper's processing model (Algorithms 1 and 2).
//
// At tuple arrival a manager accumulates, per active window and within
// the user's budget b, an incremental simple random sample and/or
// statistical metadata (count, variance; per-group frequency and
// variance for grouped operations). At watermark arrival it estimates
// the accuracy ε̂_w achievable from the budget contents; if ε̂_w ≤ ε it
// emits the approximate result R̂_w at O(b) cost, otherwise it processes
// the whole window exactly — fetching it back from secondary storage S,
// since no window is buffered — at the same cost as a conventional SPE.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"spear/internal/agg"
	"spear/internal/control"
	"spear/internal/obs"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// Config describes one approximate stateful operation — the engine-side
// form of the paper's Fig. 5 API (.budget(1MB).error(10%, 95%)).
type Config struct {
	// Spec is the window definition.
	Spec window.Spec
	// Agg is the stateful operation applied per window. Ignored when
	// Custom is set.
	Agg agg.Func
	// Custom is a user-defined holistic scalar aggregate — the
	// paper's custom approximate stateful operation API. It requires
	// a ScalarEstimator (there is no generic accuracy bound for an
	// arbitrary function) and is scalar-only: set KeyBy to nil.
	Custom *agg.CustomFunc
	// Value extracts the aggregated measure from a tuple.
	Value tuple.Extractor
	// KeyBy extracts the grouping key; nil makes the operation scalar.
	KeyBy tuple.KeyExtractor

	// Epsilon is the user's relative error bound ε: an accelerated
	// result may not deviate from the exact one by more than ε, for a
	// Confidence fraction of windows. For quantile aggregates ε is
	// interpreted as the rank error, following Manku et al.
	Epsilon float64
	// Confidence is the paper's α (e.g. 0.95).
	Confidence float64
	// BudgetTuples is the memory budget b expressed in tuples — the
	// reservoir capacity for scalar operations, the sample size for
	// grouped ones.
	BudgetTuples int

	// KnownGroups, when positive, declares the number of distinct
	// groups at CQ submission time; SPEAr then divides b equally and
	// samples at tuple arrival, eliminating the watermark-time scan
	// (§4.1: "when the number of groups is defined by the user at CQ
	// submission ... SPEAr produces R̂_w at a minimal cost").
	KnownGroups int

	// Store is the secondary storage S every tuple is archived to and
	// exact fallbacks read from; a query whose moments answer every
	// window (non-holistic, no DisableIncremental, groups unknown if
	// grouped) never calls it.
	Store storage.SpillStore
	// Key namespaces this worker's segments in Store.
	Key string

	// Seed makes sampling reproducible.
	Seed int64

	// DisableIncremental turns off the incremental fast path for
	// non-holistic scalar operations, forcing them through the
	// sample-and-estimate path. The paper does this in §5.5 to
	// isolate the estimation mechanism ("SPEAr is configured to
	// produce the mean result only at watermark arrival (i.e., no
	// incremental optimization)").
	DisableIncremental bool

	// ScalarEstimator overrides the built-in accuracy estimation for
	// scalar operations — the paper's custom-operation API ("a user
	// has to define an accuracy-estimation function"). Nil selects
	// the default for Agg's class.
	ScalarEstimator ScalarEstimator
	// GroupedEstimator likewise for grouped operations.
	GroupedEstimator GroupedEstimator

	// Metrics is the worker's telemetry bundle; nil selects a fresh
	// one of the manager's own, so the counting code has no off switch.
	Metrics *obs.Worker

	// Clock supplies wall-clock readings for processing-time telemetry
	// (ProcTime observations) only — event-time logic never consults
	// it. Nil selects the system clock. Tests inject a fake clock for
	// deterministic timing assertions.
	Clock func() time.Time

	// ArchiveChunk is the number of tuples batched per write to
	// Store; zero selects a default of 512.
	ArchiveChunk int

	// SpillAhead is the number of upcoming windows whose spilled panes
	// are prefetched from Store on each watermark (watermark-driven
	// read-ahead through the async spill plane). Zero disables
	// prefetching; it is only effective when Store is an async
	// spill.Plane.
	SpillAhead int

	// BudgetMin and BudgetMax, when BudgetMax > 0, adapt a scalar
	// budget online between windows (the paper's future-work extension,
	// "dynamic methods for online budget estimation", §4): after each
	// produced window one AIMD step (ScalarManager.nextBudget) moves it
	// within [BudgetMin, BudgetMax], starting from BudgetTuples. Zero
	// keeps the budget fixed. Ignored while Cell is attached — the
	// controller and the per-window step must not both steer the budget.
	BudgetMin, BudgetMax int

	// Cell, when non-nil, is the adaptive accuracy controller's
	// mailbox (internal/control): the manager reads the published
	// budget and shedding flag at every ingest entry point — two
	// atomic loads — and applies changes at batch boundaries.
	// BudgetTuples is the starting value the cell was created with.
	Cell *control.Cell

	// Columnar opts a scalar manager into the columnar ingest fast
	// lane: ScalarManager.OnColumnBatch runs the ingest kernel over the
	// raw []float64 value column projected from each batch. Results are
	// bit-identical to the row path when the declaration holds (see
	// ColumnarSpec); a batch whose value field does not project falls
	// back to OnTupleBatch. A grouped manager has no columnar lane and
	// ignores it.
	Columnar ColumnarSpec

	// DeferStoreDeletes, set by the checkpointing layer, makes the
	// manager record archive pane deletions instead of executing them,
	// exposing them via TakeDeferredDeletes. A crash after a checkpoint
	// must be able to rewind to state that still references those panes;
	// the checkpoint coordinator executes the deletions only after the
	// next checkpoint commits.
	DeferStoreDeletes bool
}

// ColumnarSpec declares the field projection the columnar kernel may
// assume: Value must be equivalent to tuple.FieldFloat(ValueField). The
// declaration is a promise: the kernel compares it with Value on the
// first row of every batch only and falls back to the row path on a
// mismatch, which catches a wrong field index or kind; an extractor
// that agrees with the field on a batch's first row and not on a later
// one changes results.
type ColumnarSpec struct {
	Enabled    bool
	ValueField int
}

// errors returned by config validation.
var (
	errNoValue = errors.New("core: Value extractor is required")
	errNoStore = errors.New("core: secondary storage Store is required")
)

func (c *Config) validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Custom != nil {
		if err := c.Custom.Validate(); err != nil {
			return err
		}
		if c.ScalarEstimator == nil {
			return errors.New("core: custom operation requires a ScalarEstimator")
		}
		if c.KeyBy != nil {
			return errors.New("core: custom operations are scalar-only")
		}
	} else if err := c.Agg.Validate(); err != nil {
		return err
	}
	if c.Value == nil {
		return errNoValue
	}
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		return fmt.Errorf("core: epsilon %v outside (0, 1)", c.Epsilon)
	}
	if !(c.Confidence > 0 && c.Confidence < 1) {
		return fmt.Errorf("core: confidence %v outside (0, 1)", c.Confidence)
	}
	if c.BudgetTuples <= 0 {
		return fmt.Errorf("core: budget %d must be positive", c.BudgetTuples)
	}
	if c.BudgetMax != 0 && !(1 <= c.BudgetMin && c.BudgetMin <= c.BudgetMax) {
		return fmt.Errorf("core: budget bounds [%d, %d] invalid", c.BudgetMin, c.BudgetMax)
	}
	if c.Store == nil {
		return errNoStore
	}
	if c.KnownGroups < 0 {
		return fmt.Errorf("core: KnownGroups %d negative", c.KnownGroups)
	}
	if c.KnownGroups > 0 && c.KeyBy == nil {
		return errors.New("core: KnownGroups set on a scalar operation")
	}
	if c.ArchiveChunk == 0 {
		c.ArchiveChunk = 512
	}
	if c.ArchiveChunk < 0 {
		return fmt.Errorf("core: ArchiveChunk %d negative", c.ArchiveChunk)
	}
	if c.SpillAhead < 0 {
		return fmt.Errorf("core: SpillAhead %d negative", c.SpillAhead)
	}
	c.Metrics = cmp.Or(c.Metrics, &obs.Worker{})
	return nil
}

// archives reports whether the query keeps its tuples in S for the exact
// fallback: unless the moments answer every window — a non-holistic
// aggregate, DisableIncremental off and, grouped, groups unknown — a
// window can need its tuples back.
func (c *Config) archives() bool {
	return c.Custom != nil || c.KnownGroups > 0 || !c.Agg.Incremental() || c.DisableIncremental
}

// clock returns the configured telemetry clock, defaulting to the
// system clock. This is the single sanctioned wall-clock reference in
// the event-time packages; every manager reads time through it, and the
// eventtime check, which lintAllowed excuses here alone, keeps it that way.
func (c *Config) clock() func() time.Time {
	if c.Clock != nil {
		return c.Clock
	}
	return time.Now
}

// countIngest books n delivered tuples of which late were dropped:
// every manager counts the admitted ones in TuplesIn and the dropped
// ones in LateDropped, so the two add up to the tuples delivered. It
// reports whether state grew, i.e. whether the caller should refresh
// its memory gauge.
func (c *Config) countIngest(n int, late int64) bool {
	if late > 0 {
		c.Metrics.LateDropped.Add(late)
	}
	if int64(n) > late {
		c.Metrics.TuplesIn.Add(int64(n) - late)
		return true
	}
	return false
}

// countFire books one fired window, produced in elapsed: its processing
// time, how it was answered (res.Mode), the tuples an exact answer
// scanned (its SampleN), and whether secondary storage was touched.
// Every manager's fire path ends here.
func (c *Config) countFire(res *Result, elapsed time.Duration) {
	m := c.Metrics
	m.ProcTime.ObserveDuration(elapsed)
	m.WindowsTotal.Add(1)
	if res.Mode.Accelerated() {
		m.WindowsAccelerated.Add(1)
	} else {
		m.WindowsExact.Add(1)
		m.TuplesProcessedFull.Add(int64(res.SampleN))
	}
	if res.Mode == ModeShed {
		m.WindowsShed.Add(1)
	}
	if res.FetchedFromStore {
		m.WindowsSpilled.Add(1)
	}
}
