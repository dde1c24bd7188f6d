// Package sample implements the online sampling primitives SPEAr uses
// at tuple arrival: reservoir sampling for scalar operations and
// congressional (stratified) allocation for grouped operations.
//
// All samplers are deterministic given a seed, which keeps experiments
// reproducible run-to-run.
package sample

import (
	"math"
)

// Reservoir maintains a uniform simple random sample (s.r.s.) of a
// stream of float64 observations, bounded by a fixed capacity. This is
// the incremental sample SPEAr stores in the budget b (Alg. 1: put while
// b has room, stochastically replace afterwards).
//
// It runs Li's Algorithm L (skip-ahead, O(k·(1+log(N/k))) random numbers
// in total).
type Reservoir struct {
	cap   int
	items []float64
	seen  int64
	rng   prng

	// Algorithm L state.
	w    float64
	next int64 // index of the next item to admit
}

// ReservoirAlgo names the replacement strategy. Algorithm L is the one
// there is: the parameter stays for the benchmark's sample probe, which
// passes AlgoL.
type ReservoirAlgo uint8

// AlgoL is Li's skip-ahead algorithm: after the reservoir fills it
// computes how many items to skip before the next replacement, so the
// common case at tuple arrival is a counter increment.
const AlgoL ReservoirAlgo = 0

// NewReservoir returns a reservoir with the given capacity and seed.
// Capacity must be positive.
func NewReservoir(capacity int, seed int64, _ ReservoirAlgo) *Reservoir {
	if capacity <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	r := &Reservoir{}
	r.init(capacity, seed)
	return r
}

// init makes r an empty reservoir, keeping its sample storage: group
// reservoirs live in an array that outlasts any one window.
func (r *Reservoir) init(capacity int, seed int64) {
	*r = Reservoir{cap: capacity, items: r.items[:0], rng: prng{state: uint64(seed)}, w: 1}
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.items) < r.cap && r.seen-1 == int64(len(r.items)) {
		// True fill phase: the sample still holds every observation
		// seen, so appending keeps it trivially uniform. After a
		// capacity grow mid-stream (seen > len) this branch stays off
		// and admission goes through the probabilistic paths below.
		r.items = append(r.items, x)
		if len(r.items) == r.cap {
			r.advanceL()
		}
		return
	}
	if r.seen == r.next { // this item is the chosen one
		r.admit(r.rng.Intn(r.cap), x)
		r.advanceL()
	}
}

// admit places x at sample slot j. A slot beyond the current length is
// possible only after a capacity grow (len < cap with seen > len); the
// sample grows toward the new capacity by appending there.
func (r *Reservoir) admit(j int, x float64) {
	if j < len(r.items) {
		r.items[j] = x
	} else {
		r.items = append(r.items, x)
	}
}

// AddSlice offers a run of observations, equivalent to calling Add on
// each element in order — same admissions, same PRNG draw sequence,
// bit-identical sample. Past the fill phase it replaces the per-item
// seen==next comparison with direct skip-ahead over the slice (the
// admission index is already known), so a columnar batch costs
// O(admissions), not O(items). The fill phase takes the per-item path,
// which is already just Add.
func (r *Reservoir) AddSlice(xs []float64) {
	i := 0
	for i < len(xs) && len(r.items) < r.cap {
		r.Add(xs[i])
		i++
	}
	for i < len(xs) && len(r.items) == r.cap {
		// Items until the next admission. A schedule already behind the
		// stream (only a damaged snapshot restores one) admits nothing
		// more under Add, whose seen only moves away from next.
		d := r.next - r.seen
		if remaining := int64(len(xs) - i); d > remaining || d < 1 {
			r.seen += remaining
			return
		}
		r.seen += d
		i += int(d)
		r.admit(r.rng.Intn(r.cap), xs[i-1])
		r.advanceL()
	}
	// Refilling after a capacity grow (len < cap but past the fill
	// phase): fall back to the per-item path until the sample catches
	// up with the capacity again.
	for ; i < len(xs); i++ {
		r.Add(xs[i])
	}
}

// advanceL draws the next admission index for Algorithm L.
func (r *Reservoir) advanceL() {
	// w ← w · U^(1/k);  skip ← floor(log(U') / log(1−w)).
	r.w *= math.Exp(math.Log(r.rng.Float64()) / float64(r.cap))
	r.scheduleL()
}

// scheduleL draws the gap to the next Algorithm L admission from the
// current w.
func (r *Reservoir) scheduleL() {
	skip := math.Floor(math.Log(r.rng.Float64())/math.Log(1-r.w)) + 1
	if skip < 1 || math.IsInf(skip, 0) || math.IsNaN(skip) {
		skip = 1
	}
	r.next = r.seen + int64(skip)
}

// Resize changes the reservoir's capacity in place; newCap must be
// positive. Shrinking keeps a uniform random subset of the current
// sample — a seeded partial Fisher–Yates draw from the reservoir's own
// PRNG stream — so the post-shrink sample is still a simple random
// sample of everything seen (a u.r.s. of a u.r.s.), deterministically.
// Growing raises the capacity: the retained sample remains a valid
// s.r.s. of the prefix and future admissions append toward the new
// capacity at rate ≈ newCap/seen, converging to the larger target as
// the stream continues (OASRS-style adaptation). The skip state is
// re-derived from the admission rate the new capacity implies.
func (r *Reservoir) Resize(newCap int) {
	if newCap <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	if newCap == r.cap {
		return
	}
	if len(r.items) > newCap {
		// Partial Fisher–Yates: select newCap of len(items) uniformly.
		for i := 0; i < newCap; i++ {
			j := i + r.rng.Intn(len(r.items)-i)
			r.items[i], r.items[j] = r.items[j], r.items[i]
		}
		r.items = r.items[:newCap]
	}
	r.cap = newCap
	r.reseedL()
}

// reseedL re-derives Algorithm L's skip state after a capacity change.
// With the sample equal to the full prefix the pristine fill state is
// restored (and left at once, if the prefix fills the new capacity);
// otherwise w is set to its asymptotic expectation cap/seen — the
// probability that the next arrival is admitted — and the next admission
// is scheduled from the PRNG stream.
func (r *Reservoir) reseedL() {
	if r.seen == int64(len(r.items)) {
		r.w = 1
		r.next = 0
		if len(r.items) == r.cap {
			// The shrink landed on exactly what has been seen: the fill
			// phase ends here, not in Add, so the first skip is drawn
			// here. Without it next stays 0 and nothing is admitted again.
			r.advanceL()
		}
		return
	}
	w := float64(r.cap) / float64(r.seen)
	if w >= 1 {
		// Capacity grown past seen after an earlier shrink: admit
		// (nearly) every arrival until the sample catches up.
		w = 1 - 1e-9
	}
	r.w = w
	r.scheduleL()
}

// Seen returns the number of observations offered so far — the window
// size N the accuracy estimator needs.
func (r *Reservoir) Seen() int64 { return r.seen }

// Len returns the current sample size n ≤ cap.
func (r *Reservoir) Len() int { return len(r.items) }

// Cap returns the reservoir capacity (the budget b in tuples).
func (r *Reservoir) Cap() int { return r.cap }

// Items returns the sample contents. The slice aliases internal storage
// and must not be modified; callers that need to sort copy first.
func (r *Reservoir) Items() []float64 { return r.items }

// MemSize returns the approximate footprint in bytes: the sample slots
// plus bookkeeping. Used to charge the worker budget.
func (r *Reservoir) MemSize() int { return 8*r.cap + 48 }
