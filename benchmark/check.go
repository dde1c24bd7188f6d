package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spear"
	"spear/benchmark/loadgen"
)

// This file is the benchmark's reference: per-window exact answers from
// plain code that shares nothing with the engine, and the checker that
// holds every window result against them.

// aggKind is the aggregate a workload's reference computes.
type aggKind int

const (
	aggMean aggKind = iota
	aggMedian
	aggSum
	aggGroupedMean
)

// refSpec is what the reference needs to know about a workload's query.
type refSpec struct {
	rng, slide int64 // window range and slide in event time
	wmLag      int64 // watermark lag
	agg        aggKind
	valueField int
	keyField   int // grouped only
	// transform is the stateless chain ahead of the window as a plain
	// function of the value (false drops the tuple); nil means none.
	transform func(float64) (float64, bool)
	epsilon   float64
}

// exactTol is the relative difference allowed between an exact or
// incremental result and the reference: summation order differs, the
// answer does not.
const exactTol = 1e-9

// answer is one window's exact result.
type answer struct {
	n      int64
	scalar float64
	sorted []float64          // median only: the window's values, sorted
	groups map[string]float64 // grouped only
}

// reference answers any window of a block replayed for whole cycles.
// Window contents repeat with the block, so the answers for one period
// of window IDs are computed once (set-up cost) and the few windows
// clipped by the start or end of the stream are computed on demand.
type reference struct {
	spec   refSpec
	span   int64
	blockN int64
	ts     []int64 // event order, after transform
	vals   []float64
	keys   []string
	// arrivalMax[i] is the largest timestamp among the block's first
	// i+1 tuples in arrival order: what the watermark generator sees.
	arrivalMax []int64
	period     int64
	interior   []*answer // by window ID mod period
}

func newReference(b *loadgen.Block, spec refSpec) *reference {
	r := &reference{spec: spec, span: b.Span, blockN: int64(len(b.Tuples)), period: b.Span / spec.slide}
	if b.Span%spec.slide != 0 {
		panic("benchmark: block span is not a whole number of slides")
	}
	type row struct {
		ts  int64
		val float64
		key string
	}
	rows := make([]row, 0, len(b.Tuples))
	r.arrivalMax = make([]int64, len(b.Tuples))
	hw := int64(math.MinInt64)
	for i, t := range b.Tuples {
		hw = max(hw, t.Ts)
		r.arrivalMax[i] = hw
		v, ok := t.Vals[spec.valueField].AsFloat(), true
		if spec.transform != nil {
			v, ok = spec.transform(v)
		}
		if !ok {
			continue
		}
		rw := row{ts: t.Ts, val: v}
		if spec.agg == aggGroupedMean {
			rw.key = t.Vals[spec.keyField].AsString()
		}
		rows = append(rows, rw)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ts < rows[j].ts })
	r.ts = make([]int64, len(rows))
	r.vals = make([]float64, len(rows))
	if spec.agg == aggGroupedMean {
		r.keys = make([]string, len(rows))
	}
	for i, rw := range rows {
		r.ts[i], r.vals[i] = rw.ts, rw.val
		if r.keys != nil {
			r.keys[i] = rw.key
		}
	}
	r.interior = make([]*answer, r.period)
	for id := range r.interior {
		s := int64(id) * spec.slide
		r.interior[id] = r.compute(s, s+spec.rng)
	}
	return r
}

// compute aggregates the stream's tuples with timestamps in [s, e),
// the stream being the block repeated without end from time zero.
func (r *reference) compute(s, e int64) *answer {
	s = max(s, 0)
	var vals []float64
	var keys []string
	for c := s / r.span; c*r.span < e; c++ {
		lo := sort.Search(len(r.ts), func(i int) bool { return r.ts[i] >= s-c*r.span })
		hi := sort.Search(len(r.ts), func(i int) bool { return r.ts[i] >= e-c*r.span })
		vals = append(vals, r.vals[lo:hi]...)
		if r.keys != nil {
			keys = append(keys, r.keys[lo:hi]...)
		}
	}
	a := &answer{n: int64(len(vals))}
	if a.n == 0 {
		return a
	}
	switch r.spec.agg {
	case aggMean, aggSum:
		var sum float64
		for _, v := range vals {
			sum += v
		}
		a.scalar = sum
		if r.spec.agg == aggMean {
			a.scalar = sum / float64(a.n)
		}
	case aggMedian:
		sort.Float64s(vals)
		a.sorted = vals
		mid := len(vals) / 2
		a.scalar = vals[mid]
		if len(vals)%2 == 0 {
			a.scalar = (vals[mid-1] + vals[mid]) / 2
		}
	case aggGroupedMean:
		sums := make(map[string][2]float64)
		for i, k := range keys {
			sc := sums[k]
			sums[k] = [2]float64{sc[0] + vals[i], sc[1] + 1}
		}
		a.groups = make(map[string]float64, len(sums))
		for k, sc := range sums {
			a.groups[k] = sc[0] / sc[1]
		}
	}
	return a
}

// window is the exact answer of window id when the block is replayed
// for cycles whole cycles; n is 0 for a window holding no tuple.
func (r *reference) window(id int64, cycles int) *answer {
	s, end := id*r.spec.slide, int64(cycles)*r.span
	e := s + r.spec.rng
	if s >= 0 && e <= end {
		return r.interior[id%r.period]
	}
	return r.compute(s, min(e, end))
}

// idRange is the inclusive range of window IDs that can hold a tuple.
func (r *reference) idRange(cycles int) (lo, hi int64) {
	last := int64(cycles-1)*r.span + r.ts[len(r.ts)-1]
	return floorDiv(r.ts[0]-r.spec.rng, r.spec.slide) + 1, floorDiv(last, r.spec.slide)
}

// closingTuple is the arrival index of the tuple that lets the
// watermark close a window ending at end: the first one whose timestamp
// reaches end plus the watermark lag. ok is false when the stream ends
// first and only the final watermark closes the window.
func (r *reference) closingTuple(end int64, cycles int) (idx int64, ok bool) {
	target := end + r.spec.wmLag
	c, rem := target/r.span, target%r.span
	j := int64(sort.Search(len(r.arrivalMax), func(i int) bool { return r.arrivalMax[i] >= rem }))
	if j == r.blockN {
		c, j = c+1, 0
	}
	idx = c*r.blockN + j
	return idx, idx < int64(cycles)*r.blockN
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// winState is what the checker keeps per window while results arrive.
type winState struct {
	workers uint64 // bit per worker that has reported
	n       int64
	wsum    float64 // Σ N·value (mean, median) or Σ value (sum)
	groups  int
	sampled bool      // some part was answered from a sample
	relErr  float64   // grouped: Σ per-group relative error of sampled parts
	relN    int       // grouped: groups in that sum
	last    time.Time // arrival of the latest part
}

// checker holds every window result of one run against the reference.
// observe runs on the engine's sink goroutine; finish runs after the
// run has returned.
type checker struct {
	ref    *reference
	cycles int
	// valueEvery checks group values on every valueEvery-th window only
	// (counts and group totals are checked on all): comparing ≈5 K map
	// entries per window in the sink would cost a map lookup per input
	// tuple on the grouped workload.
	valueEvery int64

	lo, hi int64
	wins   []winState

	results, accelerated int64
	failures             []string
	failed               int
	sampledWins          int
	violations           int
}

func newChecker(ref *reference, cycles int, valueEvery int64) *checker {
	c := &checker{ref: ref, cycles: cycles, valueEvery: valueEvery}
	c.lo, c.hi = ref.idRange(cycles)
	c.wins = make([]winState, c.hi-c.lo+1)
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// observe folds one worker's result for one window.
func (c *checker) observe(worker int, r spear.Result, at time.Time) {
	id := int64(r.WindowID)
	c.results++
	if r.Mode.Accelerated() {
		c.accelerated++
	}
	if id < c.lo || id > c.hi {
		c.fail("window %d outside the expected range [%d, %d]", id, c.lo, c.hi)
		return
	}
	w := &c.wins[id-c.lo]
	bit := uint64(1) << uint(worker)
	if w.workers&bit != 0 {
		c.fail("window %d reported twice by worker %d", id, worker)
		return
	}
	w.workers |= bit
	w.last = at
	w.n += r.N
	exact := r.Mode.String() != "sampled" && r.Mode.String() != "shed"
	w.sampled = w.sampled || !exact
	if c.ref.spec.agg != aggGroupedMean {
		if !finite(r.Scalar) {
			c.fail("window %d worker %d: non-finite value %v", id, worker, r.Scalar)
		}
		if c.ref.spec.agg == aggSum {
			w.wsum += r.Scalar
		} else {
			w.wsum += float64(r.N) * r.Scalar
		}
		return
	}
	w.groups += len(r.Groups)
	if id%c.valueEvery != 0 {
		return
	}
	want := c.ref.window(id, c.cycles).groups
	for k, v := range r.Groups {
		ref, ok := want[k]
		switch e := relErr(v, ref); {
		case !ok:
			c.fail("window %d worker %d: group %q is not in the reference", id, worker, k)
			return
		case !finite(v):
			c.fail("window %d worker %d: group %q non-finite value %v", id, worker, k, v)
			return
		case exact && e > exactTol:
			c.fail("window %d worker %d: group %q = %v, reference %v", id, worker, k, v, ref)
			return
		case !exact:
			w.relErr += e
			w.relN++
		}
	}
}

// finish checks what can only be known once every result is in —
// missing windows, tuple counts, merged values — and applies the
// accuracy contract: a sampled window whose realized error exceeds ε is
// a violation, and violations count as failures only beyond what a
// 5 % miss rate explains.
func (c *checker) finish() (expected, failed int) {
	spec := c.ref.spec
	for id := c.lo; id <= c.hi; id++ {
		w := &c.wins[id-c.lo]
		a := c.ref.window(id, c.cycles)
		if a.n == 0 {
			if w.workers != 0 {
				c.fail("window %d has a result but holds no tuple", id)
			}
			continue
		}
		expected++
		switch {
		case w.workers == 0:
			c.fail("window %d missing", id)
			continue
		case w.n != a.n:
			c.fail("window %d: N = %d, reference %d (lost or late-dropped tuples)", id, w.n, a.n)
			continue
		}
		var realized float64
		switch spec.agg {
		case aggGroupedMean:
			if w.groups != len(a.groups) {
				c.fail("window %d: %d groups, reference %d", id, w.groups, len(a.groups))
				continue
			}
			if w.relN == 0 {
				continue // exact, or values not checked on this window
			}
			realized = w.relErr / float64(w.relN)
		case aggSum:
			realized = relErr(w.wsum, a.scalar)
		case aggMean:
			realized = relErr(w.wsum/float64(w.n), a.scalar)
		case aggMedian:
			got := w.wsum / float64(w.n)
			realized = relErr(got, a.scalar)
			if w.sampled {
				realized = rankError(a.sorted, got)
			}
		}
		switch {
		case !w.sampled && realized > exactTol:
			c.fail("window %d: exact result differs from the reference by %.3g relative", id, realized)
		case w.sampled:
			c.sampledWins++
			if realized > spec.epsilon {
				c.violations++
			}
		}
	}
	if over := c.violations - binomialAllowance(c.sampledWins, 0.05); over > 0 {
		c.failed += over
		c.failures = append(c.failures, fmt.Sprintf(
			"%d of %d sampled windows miss ε=%g, %d more than a 5%% miss rate allows",
			c.violations, c.sampledWins, spec.epsilon, over))
	}
	return expected, c.failed
}

// coverage is the share of sampled windows whose realized error is
// within ε (1 when no window was sampled).
func (c *checker) coverage() float64 {
	if c.sampledWins == 0 {
		return 1
	}
	return 1 - float64(c.violations)/float64(c.sampledWins)
}

// rankError is how far, as a share of the window, the rank of got is
// from the median's.
func rankError(sorted []float64, got float64) float64 {
	below := sort.SearchFloat64s(sorted, got)
	notAbove := sort.Search(len(sorted), func(i int) bool { return sorted[i] > got })
	mid := float64(len(sorted)) / 2
	switch {
	case mid < float64(below):
		return (float64(below) - mid) / float64(len(sorted))
	case mid > float64(notAbove):
		return (mid - float64(notAbove)) / float64(len(sorted))
	}
	return 0
}

// binomialAllowance is how many misses among n windows chance alone
// explains at miss rate p: the 99.9th percentile of Binomial(n, p) by
// its normal approximation, which is within one of the exact value for
// the window counts the benchmark sees.
func binomialAllowance(n int, p float64) int {
	np := float64(n) * p
	return int(math.Ceil(np + 3.09*math.Sqrt(np*(1-p))))
}

// latencies returns, for every window a tuple (not the end of the
// stream) closed, the time from that tuple's scheduled release to the
// arrival of the window's last part at the sink, in milliseconds.
func (c *checker) latencies(due func(i int64) time.Time) []float64 {
	var out []float64
	for id := c.lo; id <= c.hi; id++ {
		w := &c.wins[id-c.lo]
		if w.workers == 0 {
			continue
		}
		idx, ok := c.ref.closingTuple(id*c.ref.spec.slide+c.ref.spec.rng, c.cycles)
		if !ok {
			continue
		}
		out = append(out, float64(w.last.Sub(due(idx)))/1e6)
	}
	return out
}
