package core

import (
	"fmt"

	"spear/internal/col"
	"spear/internal/tuple"
	"spear/internal/window"
)

// Mode says how a window result was produced.
type Mode uint8

// Result production modes.
const (
	// ModeExact means the whole window was processed (ε̂_w > ε, or
	// approximation was impossible). Performance is identical to a
	// conventional SPE plus the accuracy check.
	ModeExact Mode = iota
	// ModeSampled means the result was estimated from the budget's
	// sample — the accelerated path.
	ModeSampled
	// ModeIncremental means a non-holistic operation was maintained
	// exactly at tuple arrival and finalized in O(1).
	ModeIncremental
	// ModeShed means the accuracy check failed but load shedding had
	// dropped the window's archive, so the result was produced from
	// the sample anyway. EstError carries the realized bound — which
	// may exceed ε: this is the one mode whose contract is "best
	// effort under overload", and ContractMet reports false for it.
	ModeShed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSampled:
		return "sampled"
	case ModeIncremental:
		return "incremental"
	case ModeShed:
		return "shed"
	default:
		return "exact"
	}
}

// Accelerated reports whether the window avoided full processing.
func (m Mode) Accelerated() bool { return m != ModeExact }

// Result is one window's output R_w (or R̂_w).
type Result struct {
	WindowID   window.ID
	Start, End int64 // [Start, End) in the spec's domain
	N          int64 // window size |S_w|
	SampleN    int   // tuples the result was computed from

	Mode Mode
	// EstError is the estimated error ε̂_w the accuracy check
	// compared against ε (0 for exact and incremental results). For
	// ModeShed it is the realized bound of the forced sample answer,
	// possibly above Epsilon.
	EstError float64
	// Epsilon and Confidence echo the accuracy contract (ε, α) the
	// window was held to, so every result carries its own error/
	// confidence context even as budgets move at runtime.
	Epsilon    float64
	Confidence float64
	// Budget is the tuple budget in force when the window was
	// produced — the adaptive controller's trajectory, per window.
	Budget int
	// FetchedFromStore reports whether secondary storage was read.
	FetchedFromStore bool

	// Scalar holds the result of a scalar operation.
	Scalar float64
	// Groups holds per-group results for grouped operations; nil for
	// scalar ones.
	Groups map[string]float64
}

// ContractMet reports whether the result honors the query's (ε, α)
// accuracy contract: exact and incremental results trivially, sampled
// results by the passed check; only ModeShed — a sample answer forced
// by load shedding after its accuracy check failed — does not.
func (r Result) ContractMet() bool { return r.Mode != ModeShed }

// String renders the result for logs.
func (r Result) String() string {
	if r.Groups != nil {
		return fmt.Sprintf("window[%d,%d) %s groups=%d n=%d/%d ε̂=%.4f",
			r.Start, r.End, r.Mode, len(r.Groups), r.SampleN, r.N, r.EstError)
	}
	return fmt.Sprintf("window[%d,%d) %s value=%g n=%d/%d ε̂=%.4f",
		r.Start, r.End, r.Mode, r.Scalar, r.SampleN, r.N, r.EstError)
}

// Manager is the SPEAr window manager interface: the window lifecycle
// of §2, producing Results instead of raw windows. Every manager, the
// baselines included, takes its tuples one way: a run at a time.
type Manager interface {
	// OnTupleBatch ingests a run of data tuples in arrival order;
	// count-domain specs may complete windows here. A run of one is a
	// run like any other: every value, Mode and ε̂_w is the same
	// wherever the caller cut the stream into runs.
	//
	// ts belongs to the caller, which recycles it as soon as the call
	// returns (it is a pooled run straight off an engine channel): keep
	// tuples by value, never the slice.
	OnTupleBatch(ts []tuple.Tuple) ([]Result, error)
	// OnWatermark completes every window with end ≤ wm.
	OnWatermark(wm int64) ([]Result, error)
}

// ColumnManager is the optional columnar fast path on Manager; only
// ScalarManager has one. When Config.Columnar is enabled, the engine's
// windowed workers point a pooled col.ColumnBatch at each run of data
// tuples (SetRows) and deliver it here instead of OnTupleBatch; the
// kernel projects the value column it reads (Floats).
//
// The contract is strict equivalence: OnColumnBatch(cb) must leave the
// manager in the same state, and return the same results in the same
// order, as OnTupleBatch over cb.Rows(). Window values AND
// accelerate/exact Mode decisions are bit-identical by construction: the
// kernels consume the same float bits in the same per-window arrival
// order and draw the same PRNG streams. A manager whose configuration or
// batch shape is outside its kernel's reach must fall back to
// OnTupleBatch(cb.Rows()) internally, never approximate.
//
// The batch is borrowed: it is valid only for the duration of the call
// (the worker refills it for the next batch), so kernels must not
// retain cb or any slice obtained from it.
type ColumnManager interface {
	OnColumnBatch(cb *col.ColumnBatch) ([]Result, error)
}

// Prefetcher is the optional watermark-driven read-ahead hook on
// Manager. After a watermark round, the engine invokes it with the
// merged watermark; managers backed by the async spill plane use it to
// warm the plane's chunk cache with the spilled panes of the windows
// that will fire next, so a failed accuracy check finds the window in
// memory instead of paying a round-trip to S per pane.
//
// PrefetchWatermark must be side-effect free with respect to results:
// it may only move data, never change what any window produces.
type Prefetcher interface {
	PrefetchWatermark(wm int64)
}

// KeepsRows reports whether m may still reference a tuple it was
// handed, or the values of one, once the ingest call returns. A caller
// that decoded a run's values into a slab of its own reuses the slab
// only when m keeps none; a manager that does not say keeps rows.
func KeepsRows(m Manager) bool {
	if k, ok := m.(interface{ KeepsRows() bool }); ok {
		return k.KeepsRows()
	}
	return true
}

// IngestBatch is m.OnTupleBatch(ts); benchmark/layers/checkpoint calls
// it by this name.
func IngestBatch(m Manager, ts []tuple.Tuple) ([]Result, error) { return m.OnTupleBatch(ts) }
