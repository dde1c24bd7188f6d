// Package agg implements the stateful aggregate operations SPEAr
// supports (§4: "mean-like stateful operations, including the most
// popular aggregate functions (e.g., count, sum, average, quantile,
// variance, stddev)"), in scalar and grouped forms, with exact,
// incremental, and sample-based evaluation paths.
package agg

import (
	"fmt"
	"sort"

	"spear/internal/stats"
)

// Op identifies an aggregate operation.
type Op uint8

// Supported operations.
const (
	Count Op = iota
	Sum
	Mean
	Min
	Max
	Variance
	StdDev
	Percentile
)

// String names the op.
func (o Op) String() string {
	switch o {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Mean:
		return "mean"
	case Min:
		return "min"
	case Max:
		return "max"
	case Variance:
		return "variance"
	case StdDev:
		return "stddev"
	case Percentile:
		return "percentile"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Class is Gray et al.'s aggregate taxonomy, which the paper uses to
// pick accuracy estimators (§4.2: "ε_w differs among stateful
// operations, especially between distributive/algebraic, and holistic
// operations").
type Class uint8

// Aggregate classes.
const (
	// Distributive aggregates combine sub-aggregates directly
	// (count, sum, min, max).
	Distributive Class = iota
	// Algebraic aggregates derive from a fixed number of
	// distributives (mean, variance, stddev).
	Algebraic
	// Holistic aggregates need the full multiset (percentile).
	Holistic
)

// Func is a concrete aggregate: an op plus its parameter (the rank P in
// [0,1] for percentiles; ignored otherwise).
type Func struct {
	Op Op
	P  float64
}

// Median is the 0.5 percentile.
func Median() Func { return Func{Op: Percentile, P: 0.5} }

// Validate checks the function is well-formed.
func (f Func) Validate() error {
	if f.Op > Percentile {
		return fmt.Errorf("agg: unknown op %d", f.Op)
	}
	if f.Op == Percentile && !(f.P >= 0 && f.P <= 1) {
		return fmt.Errorf("agg: percentile rank %v outside [0, 1]", f.P)
	}
	return nil
}

// Class returns the aggregate's class.
func (f Func) Class() Class {
	switch f.Op {
	case Count, Sum, Min, Max:
		return Distributive
	case Mean, Variance, StdDev:
		return Algebraic
	default:
		return Holistic
	}
}

// Holistic reports whether the aggregate needs the full window multiset.
func (f Func) Holistic() bool { return f.Class() == Holistic }

// Incremental reports whether the aggregate can be maintained exactly at
// tuple arrival in O(1) memory (the non-holistic ops: §4.1 "On
// non-holistic scalar operations (i.e., incremental), SPEAr
// incrementally updates R_w at tuple arrival").
func (f Func) Incremental() bool { return !f.Holistic() }

// String renders the function, e.g. "percentile(0.95)".
func (f Func) String() string {
	if f.Op == Percentile {
		return fmt.Sprintf("percentile(%g)", f.P)
	}
	return f.Op.String()
}

// Compute evaluates the aggregate exactly over all values — the path an
// exact SPE takes after the single-buffer scan. Percentile sorts a copy
// (the cost Fig. 6 measures for Storm: "it requires maintaining and
// sorting each window"). An empty input returns 0 for count and sum and
// NaN-free 0 for the rest, matching SQL-ish conventions closely enough
// for the engine (windows are never empty in practice: a window with no
// tuples is not fired).
func (f Func) Compute(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	switch f.Op {
	case Count:
		return float64(len(values))
	case Sum:
		var s float64
		for _, v := range values {
			s += v
		}
		return s
	case Mean:
		return stats.MeanOf(values)
	case Min:
		m := values[0]
		for _, v := range values[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case Max:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case Variance:
		return stats.VarianceOf(values)
	case StdDev:
		var w stats.Welford
		for _, v := range values {
			w.Add(v)
		}
		return w.StdDev()
	case Percentile:
		sorted := make([]float64, len(values))
		copy(sorted, values)
		sort.Float64s(sorted)
		return stats.PercentileOfSorted(sorted, f.P)
	default:
		panic("agg: Compute on invalid op")
	}
}

// FromWelford evaluates a non-holistic aggregate from running moments in
// O(1) — the incremental path. ok is false for holistic ops and for
// scale estimates (count/sum) where the true window size is required but
// the accumulator only saw a sample; the caller decides which Welford to
// pass.
func (f Func) FromWelford(w *stats.Welford) (v float64, ok bool) {
	switch f.Op {
	case Count:
		return float64(w.Count()), true
	case Sum:
		return w.Sum(), true
	case Mean:
		return w.Mean(), true
	case Min:
		return w.Min(), true
	case Max:
		return w.Max(), true
	case Variance:
		return w.Variance(), true
	case StdDev:
		return w.StdDev(), true
	default:
		return 0, false
	}
}

// Estimate evaluates the aggregate from a simple random sample of size
// len(sample) drawn from a window of size n — the SPEAr accelerated
// path. Count and Sum are scaled up by n/len(sample); the others are
// direct plug-in estimates.
func (f Func) Estimate(sample []float64, n int64) float64 {
	if len(sample) == 0 {
		return 0
	}
	switch f.Op {
	case Count:
		return float64(n)
	case Sum:
		return stats.MeanOf(sample) * float64(n)
	default:
		return f.Compute(sample)
	}
}

// ComputeGrouped evaluates the aggregate exactly per distinct group.
// keys and values are parallel slices (one entry per tuple).
func ComputeGrouped(keys []string, values []float64, f Func) map[string]float64 {
	if len(keys) != len(values) {
		panic("agg: keys and values length mismatch")
	}
	if f.Holistic() {
		// Holistic grouped needs per-group multisets.
		byGroup := make(map[string][]float64)
		for i, k := range keys {
			byGroup[k] = append(byGroup[k], values[i])
		}
		out := make(map[string]float64, len(byGroup))
		for k, vs := range byGroup {
			out[k] = f.Compute(vs)
		}
		return out
	}
	// Non-holistic grouped folds into per-group moments: single pass,
	// constant per-group state.
	byGroup := make(map[string]*stats.Welford)
	for i, k := range keys {
		w, ok := byGroup[k]
		if !ok {
			w = &stats.Welford{}
			byGroup[k] = w
		}
		w.Add(values[i])
	}
	out := make(map[string]float64, len(byGroup))
	for k, w := range byGroup {
		v, _ := f.FromWelford(w)
		out[k] = v
	}
	return out
}

// Incremental maintains a non-holistic aggregate exactly at tuple
// arrival, per window — the Inc-Storm baseline of Fig. 8a. (SPEAr's own
// path for non-holistic scalar ops keeps a stats.Welford per slice and
// reads it with FromWelford.) Construction rejects holistic functions.
type Incremental struct {
	f Func
	w stats.Welford
}

// NewIncremental returns an incremental evaluator for f.
func NewIncremental(f Func) (*Incremental, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Holistic() {
		return nil, fmt.Errorf("agg: %s cannot be maintained incrementally", f)
	}
	return &Incremental{f: f}, nil
}

// Add folds one value in.
func (i *Incremental) Add(x float64) { i.w.Add(x) }

// Result returns the current exact value: for the window mean this is
// the single division of §5.2 ("When a watermark arrives, it only
// performs a division to produce the mean per window").
func (i *Incremental) Result() float64 {
	v, _ := i.f.FromWelford(&i.w)
	return v
}

// Count returns the number of values folded in.
func (i *Incremental) Count() int64 { return i.w.Count() }
