// Package window implements the windowing machinery of the engine:
// window specifications (time/count × sliding/tumbling), assignment of
// tuples to windows, the window lifecycle every manager holds, and the
// multiple-buffers design (Flink) of Figs. 3–4, kept as the reference
// for the single-buffer design (Storm, adopted by SPEAr), which is the
// exact baseline's shape in internal/core.
package window

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Domain says what a window ranges over.
type Domain uint8

// Window domains.
const (
	// TimeDomain windows are defined over event time: a tuple's Ts is
	// nanoseconds since the epoch, and windows close on watermarks.
	TimeDomain Domain = iota
	// CountDomain windows are defined over tuple arrival counts: the
	// manager assigns each tuple a sequence number, and windows close
	// as soon as the configured number of tuples has arrived (§5.3:
	// "with a count-based window definition, workers produce each
	// window result by the time the configured number of tuples are
	// met").
	CountDomain
)

// String names the domain.
func (d Domain) String() string {
	if d == CountDomain {
		return "count"
	}
	return "time"
}

// ID identifies a window: window k spans [k·Slide, k·Slide+Range).
type ID int64

// Spec describes a window definition. Slide == Range gives tumbling
// windows; Slide < Range gives sliding (overlapping) windows.
type Spec struct {
	Domain Domain
	Range  int64 // window length: nanoseconds (time) or tuples (count)
	Slide  int64 // advance between consecutive windows
}

// Sliding returns a time-based sliding window spec.
func Sliding(rng, slide time.Duration) Spec {
	return Spec{Domain: TimeDomain, Range: int64(rng), Slide: int64(slide)}
}

// Tumbling returns a time-based tumbling window spec.
func Tumbling(rng time.Duration) Spec {
	return Spec{Domain: TimeDomain, Range: int64(rng), Slide: int64(rng)}
}

// CountSliding returns a count-based sliding window spec.
func CountSliding(rng, slide int64) Spec {
	return Spec{Domain: CountDomain, Range: rng, Slide: slide}
}

// Validate checks the spec is well-formed.
func (s Spec) Validate() error {
	if s.Range <= 0 {
		return errors.New("window: range must be positive")
	}
	if s.Slide <= 0 {
		return errors.New("window: slide must be positive")
	}
	if s.Slide > s.Range {
		return errors.New("window: slide must not exceed range (gaps would drop tuples)")
	}
	if s.Domain != TimeDomain && s.Domain != CountDomain {
		return errors.New("window: unknown domain")
	}
	return nil
}

// IsTumbling reports whether windows do not overlap.
func (s Spec) IsTumbling() bool { return s.Slide == s.Range }

// Overlap returns the number of windows each tuple participates in
// (⌈Range/Slide⌉): 1 for tumbling, more for sliding.
func (s Spec) Overlap() int {
	return int((s.Range + s.Slide - 1) / s.Slide)
}

// Bounds returns the [start, end) interval of window id.
func (s Spec) Bounds(id ID) (start, end int64) {
	start = int64(id) * s.Slide
	return start, start + s.Range
}

// floorDiv is integer division rounding toward negative infinity, so
// assignment is correct for timestamps before the epoch.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Assign returns the inclusive ID interval [lo, hi] of the windows that
// contain position ts (an event timestamp or a sequence number).
// Window k contains ts iff k·Slide ≤ ts < k·Slide + Range.
func (s Spec) Assign(ts int64) (lo, hi ID) {
	hi = ID(floorDiv(ts, s.Slide))
	lo = ID(floorDiv(ts-s.Range, s.Slide) + 1)
	return lo, hi
}

// EachRun partitions pos (positions in arrival order, not necessarily
// sorted) into maximal runs of consecutive elements sharing one window
// assignment and calls visit once per run with the half-open index
// range [i0, i1) and that run's inclusive window interval [lo, hi].
// Concatenating the runs reproduces Assign element-for-element; the
// point is that a columnar kernel pays the assignment arithmetic once
// per run instead of once per tuple (a tumbling window sees one run per
// batch in steady state).
func (s Spec) EachRun(pos []int64, visit func(i0, i1 int, lo, hi ID)) {
	for i := 0; i < len(pos); {
		lo, hi := s.Assign(pos[i])
		start, end := s.Slice(lo, hi)
		j := i + 1
		for j < len(pos) && pos[j] >= start && pos[j] < end {
			j++
		}
		visit(i, j, lo, hi)
		i = j
	}
}

// Slice returns the interval [start, end) of the positions whose window
// assignment is exactly [lo, hi], empty when no position has it:
//
//	hi = floorDiv(ts, Slide)        ⇔ hi·S ≤ ts < (hi+1)·S
//	lo = floorDiv(ts−Range, S) + 1  ⇔ (lo−1)·S+R ≤ ts < lo·S+R
func (s Spec) Slice(lo, hi ID) (start, end int64) {
	start, end = int64(hi)*s.Slide, (int64(hi)+1)*s.Slide
	if t := (int64(lo)-1)*s.Slide + s.Range; t > start {
		start = t
	}
	if t := int64(lo)*s.Slide + s.Range; t < end {
		end = t
	}
	return start, end
}

// IDsIn returns the keys of m (window ids, or pane indices) within
// [from, to] in ascending order. A fire walks these and not the id
// range, so a watermark that follows a gap in the stream costs the
// windows that exist instead of gap ÷ slide.
func IDsIn[K ~int64, W any](m map[K]W, from, to K) []K {
	var ids []K
	for id := range m {
		if id >= from && id <= to {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// FirstCompleteBy returns the largest window ID whose end is ≤ wm, i.e.
// the newest window a watermark with timestamp wm completes. The caller
// fires windows nextFire..FirstCompleteBy(wm).
func (s Spec) FirstCompleteBy(wm int64) ID {
	// end(k) = k·Slide + Range ≤ wm  ⇔  k ≤ (wm − Range)/Slide.
	return ID(floorDiv(wm-s.Range, s.Slide))
}

// String renders the spec, e.g. "sliding(15m0s, 5m0s)".
func (s Spec) String() string {
	if s.Domain == CountDomain {
		if s.IsTumbling() {
			return fmt.Sprintf("count-tumbling(%d)", s.Range)
		}
		return fmt.Sprintf("count-sliding(%d, %d)", s.Range, s.Slide)
	}
	if s.IsTumbling() {
		return fmt.Sprintf("tumbling(%s)", time.Duration(s.Range))
	}
	return fmt.Sprintf("sliding(%s, %s)", time.Duration(s.Range), time.Duration(s.Slide))
}
