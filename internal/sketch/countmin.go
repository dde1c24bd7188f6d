// Package sketch implements the sketching baselines the paper compares
// against (§5.2, Table 2): a CountMin sketch equivalent to StreamLib's,
// and the grouped-mean-over-two-sketches construction used there ("we
// used a CountMin sketch for counting the sum of values and the
// frequency of appearance of each distinct group").
//
// The point the paper makes — and this package preserves — is that a
// sketch pays several hash evaluations per tuple and still has to keep
// the distinct groups around to reconstruct results, so its processing
// and space benefits shrink on grouped aggregates.
package sketch

import (
	"fmt"
	"hash/maphash"
	"math"
)

// CountMin is a Cormode–Muthukrishnan CountMin sketch over string keys
// with float64 increments. Estimates overestimate with bounded error:
// with width w = ⌈e/ε⌉ and depth d = ⌈ln(1/δ)⌉, the estimate exceeds the
// true value by at most ε·‖counts‖₁ with probability ≥ 1−δ.
type CountMin struct {
	width, depth int
	table        [][]float64
	seeds        []maphash.Seed
}

// NewCountMin returns a sketch with the given width and depth.
func NewCountMin(width, depth int) *CountMin {
	if width <= 0 || depth <= 0 {
		panic("sketch: width and depth must be positive")
	}
	cm := &CountMin{
		width: width,
		depth: depth,
		table: make([][]float64, depth),
		seeds: make([]maphash.Seed, depth),
	}
	for i := range cm.table {
		cm.table[i] = make([]float64, width)
		cm.seeds[i] = maphash.MakeSeed()
	}
	return cm
}

// NewCountMinWithError sizes the sketch for additive error ε·‖x‖₁ with
// probability 1−δ — the rule used to match SPEAr's (ε, α) specification
// in Table 2: eps = ε, delta = 1 − α.
func NewCountMinWithError(eps, delta float64) *CountMin {
	if !(eps > 0 && eps < 1) || !(delta > 0 && delta < 1) {
		panic("sketch: eps and delta must be in (0, 1)")
	}
	w := int(math.Ceil(math.E / eps))
	d := int(math.Ceil(math.Log(1 / delta)))
	if d < 1 {
		d = 1
	}
	return NewCountMin(w, d)
}

func (c *CountMin) bucket(row int, key string) int {
	h := maphash.String(c.seeds[row], key)
	return int(h % uint64(c.width))
}

// Add increments key's count by v (v must be non-negative for the error
// guarantee to hold).
func (c *CountMin) Add(key string, v float64) {
	for row := 0; row < c.depth; row++ {
		c.table[row][c.bucket(row, key)] += v
	}
}

// Estimate returns the (over-)estimate of key's accumulated value.
func (c *CountMin) Estimate(key string) float64 {
	est := math.Inf(1)
	for row := 0; row < c.depth; row++ {
		if v := c.table[row][c.bucket(row, key)]; v < est {
			est = v
		}
	}
	return est
}

// Reset clears all counters for the next window.
func (c *CountMin) Reset() {
	for _, row := range c.table {
		for i := range row {
			row[i] = 0
		}
	}
}

// MemSize returns the sketch footprint in bytes.
func (c *CountMin) MemSize() int { return c.width*c.depth*8 + c.depth*8 }

// GroupedMeanSketch reproduces the Table 2 baseline: a per-window
// grouped mean computed from two CountMin sketches (one accumulating
// per-group value sums, one per-group frequencies) plus the distinct
// group set, which must be kept anyway to reconstruct results (§3:
// "to reconstruct the result of the sketch, each distinct group needs to
// be maintained in memory").
type GroupedMeanSketch struct {
	sums   *CountMin
	counts *CountMin
	groups map[string]struct{}
}

// NewGroupedMeanSketch sizes both sketches for (eps, delta).
func NewGroupedMeanSketch(eps, delta float64) *GroupedMeanSketch {
	return &GroupedMeanSketch{
		sums:   NewCountMinWithError(eps, delta),
		counts: NewCountMinWithError(eps, delta),
		groups: make(map[string]struct{}),
	}
}

// Add folds one (group, value) observation in. Each tuple pays
// 2·depth hash evaluations — the overhead Table 2 attributes to
// "the application of the computation-heavy hash functions".
func (g *GroupedMeanSketch) Add(key string, v float64) {
	g.groups[key] = struct{}{}
	g.sums.Add(key, v)
	g.counts.Add(key, 1)
}

// Result reconstructs the per-group mean estimates.
func (g *GroupedMeanSketch) Result() map[string]float64 {
	out := make(map[string]float64, len(g.groups))
	for k := range g.groups {
		cnt := g.counts.Estimate(k)
		if cnt <= 0 {
			out[k] = 0
			continue
		}
		out[k] = g.sums.Estimate(k) / cnt
	}
	return out
}

// Reset clears both sketches and the group set for the next window.
func (g *GroupedMeanSketch) Reset() {
	g.sums.Reset()
	g.counts.Reset()
	g.groups = make(map[string]struct{})
}

// MemSize returns the total footprint: both sketches plus the group set
// (the part that diminishes the space benefit on grouped operations).
func (g *GroupedMeanSketch) MemSize() int {
	n := g.sums.MemSize() + g.counts.MemSize()
	for k := range g.groups {
		n += len(k) + 48
	}
	return n
}

// String summarizes the configuration.
func (g *GroupedMeanSketch) String() string {
	return fmt.Sprintf("countmin-grouped-mean(w=%d, d=%d, groups=%d)",
		g.sums.width, g.sums.depth, len(g.groups))
}
