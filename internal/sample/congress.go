package sample

import (
	"math/rand"
	"sort"

	"spear/internal/stats"
)

// CongressAllocate splits a sample budget (in tuples) among groups using
// basic congressional allocation (Acharya et al., SIGMOD'00), the
// technique SPEAr applies to grouped operations (§4.1). The allocation
// is the normalized maximum of:
//
//   - the "house": proportional to each group's frequency, which favors
//     large groups and keeps overall error low, and
//   - the "senate": equal share per group, which guarantees small groups
//     minimum representation so R̂_w contains every distinct group.
//
// Groups with fewer tuples than their allocation are capped at their
// frequency. The returned sizes sum to at most budget. An empty
// frequency map or non-positive budget yields nil, as does a budget
// smaller than the number of nonzero-frequency groups: the senate floor
// (≥1 slot per represented group) cannot be honored within the budget,
// so the allocation is infeasible and the caller must fall back to
// exact processing rather than silently oversample.
func CongressAllocate(freqs map[string]int64, budget int) map[string]int {
	keys := make([]string, 0, len(freqs))
	for k := range freqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fs := make([]int64, len(keys))
	for i, k := range keys {
		fs[i] = freqs[k]
	}
	return congress(keys, fs, budget)
}

// CongressAllocate is the package-level function over the frequencies g
// has accumulated.
func (g *GroupStats) CongressAllocate(budget int) map[string]int {
	keys := make([]string, 0, len(g.ids))
	fs := make([]int64, 0, len(g.ids))
	g.EachSorted(func(key string, w *stats.Welford) {
		keys, fs = append(keys, key), append(fs, w.Count())
	})
	return congress(keys, fs, budget)
}

// congress allocates over parallel slices of group keys and frequencies.
// keys must be sorted: the iteration order fixes the rounding, so that
// the allocation is reproducible.
func congress(keys []string, freqs []int64, budget int) map[string]int {
	g := len(keys)
	if budget <= 0 || g == 0 {
		return nil
	}
	var total int64
	pos := 0
	for _, f := range freqs {
		total += f
		if f > 0 {
			pos++
		}
	}
	if total == 0 || pos > budget {
		return nil
	}

	b := float64(budget)
	raw := make([]float64, g)
	var rawSum float64
	for i, f := range freqs {
		house := b * float64(f) / float64(total)
		senate := b / float64(g)
		m := house
		if senate > m {
			m = senate
		}
		// A group can never use more slots than it has tuples.
		if cap := float64(f); m > cap {
			m = cap
		}
		raw[i] = m
		rawSum += m
	}
	// Normalize so the allocation fits the budget, then floor. The
	// senate terms make rawSum ≥ b whenever total ≥ b, so scaling is
	// usually downward; capped groups can leave slack, which we keep
	// (returning less than the budget is always safe).
	scale := 1.0
	if rawSum > b {
		scale = b / rawSum
	}
	alloc := make([]int, g)
	sum := 0
	for i, f := range freqs {
		n := int(raw[i] * scale)
		if n < 1 && f > 0 {
			n = 1 // senate floor: every group is represented
		}
		if int64(n) > f {
			n = int(f)
		}
		alloc[i] = n
		sum += n
	}
	// The +1 floors can overshoot the budget when there are many tiny
	// groups; trim from the largest allocations (they lose the least
	// relative precision).
	if sum > budget {
		// Visit groups by allocation descending and shave one slot at
		// a time, never below 1.
		order := make([]int, g)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return alloc[order[i]] > alloc[order[j]] })
		for sum > budget {
			shaved := false
			for _, i := range order {
				if alloc[i] > 1 {
					alloc[i]--
					sum--
					shaved = true
					if sum <= budget {
						break
					}
				}
			}
			if !shaved {
				// All groups at the floor. Unreachable now that a
				// budget below the nonzero-group count returns nil
				// up front (sum == #groups ≤ budget); kept as a
				// safety valve against infinite looping.
				break
			}
		}
	}
	out := make(map[string]int, g)
	for i, k := range keys {
		out[k] = alloc[i]
	}
	return out
}

// StratifiedFromBuffer builds a per-group simple random sample from a
// fully buffered window in one scan, given the per-group sizes from
// CongressAllocate. This is the second pass SPEAr defers to watermark
// arrival (§4.1): the frequencies were accumulated online, so sampling
// needs only this single scan that the single-buffer design performs
// anyway for eviction.
//
// keys and values must be parallel slices (one entry per tuple). The
// result maps each group to its sampled values.
func StratifiedFromBuffer(keys []string, values []float64, alloc map[string]int, seed int64) map[string][]float64 {
	if len(keys) != len(values) {
		panic("sample: keys and values length mismatch")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string][]float64, len(alloc))
	seen := make(map[string]int64, len(alloc))
	for i, k := range keys {
		target, ok := alloc[k]
		if !ok || target == 0 {
			continue
		}
		seen[k]++
		s := out[k]
		if len(s) < target {
			out[k] = append(s, values[i])
			continue
		}
		// Per-group Algorithm R keeps each stratum an s.r.s.
		if j := rng.Int63n(seen[k]); j < int64(target) {
			s[j] = values[i]
		}
	}
	return out
}
