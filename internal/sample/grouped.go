package sample

import (
	"slices"

	"spear/internal/stats"
)

// groupIndex is what a window's per-group structures share: which
// groups the window holds, and where. Values live in a compact array in
// order of first arrival; pos, indexed by the dictionary's ids, says
// where. The index by id is 4 bytes a key and not the values themselves
// because the dictionary holds the keys of every open window: with many
// windows open over mostly different keys (a long watermark lag), a
// value slab by id per window would be mostly holes.
type groupIndex struct {
	dict   *KeyDict
	pos    []uint32 // by id: the group's position in ids plus one, 0 when absent
	ids    []uint32 // groups present, in order of first arrival
	keyMem int      // total bytes of their keys
}

// find returns the position plus one of group id, 0 when absent.
func (x *groupIndex) find(id uint32) uint32 {
	if int(id) < len(x.pos) {
		return x.pos[id]
	}
	return 0
}

// enter appends group id, taking a hold on the id, and returns its
// position plus one.
func (x *groupIndex) enter(id uint32) uint32 {
	if int(id) >= len(x.pos) {
		// Everything past the length is zero: fresh memory is, and
		// reset zeroes what it used.
		n := len(x.dict.keys)
		x.pos = slices.Grow(x.pos, n-len(x.pos))[:n]
	}
	x.ids = append(x.ids, id)
	x.pos[id] = uint32(len(x.ids))
	x.keyMem += len(x.dict.keys[id])
	x.dict.refs[id]++
	return x.pos[id]
}

// lookup returns the position plus one of the group named key, 0 when
// absent.
func (x *groupIndex) lookup(key string) uint32 {
	if id, ok := x.dict.lookup(key); ok {
		return x.find(id)
	}
	return 0
}

// reset forgets every group and gives the ids back to the dictionary.
func (x *groupIndex) reset() {
	for _, id := range x.ids {
		x.pos[id] = 0
	}
	x.dict.release(x.ids)
	x.ids, x.keyMem = x.ids[:0], 0
}

// GroupStats accumulates, per distinct group, the frequency and the
// running variance of the aggregated value — the metadata SPEAr keeps in
// the budget b for grouped operations while a window is active (§4.1:
// "SPEAr maintains each group's frequency and variance for the value
// that is used in the stateful operation").
//
// The per-group footprint is r + 4 + f bytes in the paper's accounting
// (group id, frequency counter, variance); MemSize mirrors that.
type GroupStats struct {
	groupIndex
	vals  []stats.Welford // parallel to ids
	total int64
}

// NewGroupStats returns an empty accumulator whose group ids are d's.
func (d *KeyDict) NewGroupStats() *GroupStats {
	return &GroupStats{groupIndex: groupIndex{dict: d}}
}

// AddID is Add for a group already resolved to its id in the
// dictionary g was created from.
func (g *GroupStats) AddID(id uint32, value float64) {
	i := g.find(id)
	if i == 0 {
		i = g.open(id)
	}
	g.vals[i-1].Add(value)
	g.total++
}

// open enters group id with an empty accumulator and returns its
// position plus one. Kept out of line: inlined, its append costs AddID
// a third more time on the groups that are already there
// (BenchmarkGroupedIngestOverlap, 87 → 122 ns/tuple at overlap 1).
//
//go:noinline
func (g *GroupStats) open(id uint32) uint32 {
	g.vals = append(g.vals, stats.Welford{})
	return g.enter(id)
}

// Len returns the number of distinct groups observed.
func (g *GroupStats) Len() int { return len(g.ids) }

// Get returns the accumulator for a group, or nil. The pointer is valid
// until the next Add.
func (g *GroupStats) Get(key string) *stats.Welford {
	if i := g.lookup(key); i != 0 {
		return &g.vals[i-1]
	}
	return nil
}

// Each calls fn for every (group, accumulator) pair, in order of first
// arrival.
func (g *GroupStats) Each(fn func(key string, w *stats.Welford)) {
	for i, id := range g.ids {
		fn(g.dict.keys[id], &g.vals[i])
	}
}

// EachSorted is Each in key order.
func (g *GroupStats) EachSorted(fn func(key string, w *stats.Welford)) {
	for _, id := range g.dict.sorted(g.ids) {
		fn(g.dict.keys[id], &g.vals[g.pos[id]-1])
	}
}

// Total returns the total number of observations across groups (the
// window size N).
func (g *GroupStats) Total() int64 { return g.total }

// Reset clears all groups for the next window, keeping the storage, and
// gives the groups' ids back to the dictionary.
func (g *GroupStats) Reset() {
	g.reset()
	g.vals, g.total = g.vals[:0], 0
}

// MemSize returns the approximate footprint in bytes, following the
// paper's r+4+f per-group accounting plus map overhead: the groups the
// window has seen are charged, not the capacity kept for the next one.
func (g *GroupStats) MemSize() int {
	// Per group: key bytes (r) + 4-byte frequency + 8-byte variance
	// (f), plus ~48 bytes of map/pointer overhead per entry.
	return g.keyMem + len(g.ids)*(4+8+48)
}

// GroupReservoirs maintains one reservoir per group with a fixed
// per-group capacity. SPEAr uses this when the number of groups is known
// at CQ submission: the budget is divided equally among groups and the
// stratified sample is built at tuple arrival, so no second scan is ever
// needed (§4.1 last paragraph).
type GroupReservoirs struct {
	groupIndex
	perGroup int
	seed     int64
	res      []Reservoir // parallel to ids
}

// NewGroupReservoirs returns group reservoirs of perGroup capacity each
// over a dictionary of their own (Algorithm L; see ReservoirAlgo).
func NewGroupReservoirs(perGroup int, seed int64, _ ReservoirAlgo) *GroupReservoirs {
	return NewKeyDict().NewGroupReservoirs(perGroup, seed)
}

// NewGroupReservoirs returns group reservoirs whose group ids are d's.
func (d *KeyDict) NewGroupReservoirs(perGroup int, seed int64) *GroupReservoirs {
	g := &GroupReservoirs{groupIndex: groupIndex{dict: d}}
	g.Reseed(perGroup, seed)
	return g
}

// Reseed sets the per-group capacity and base seed of an empty
// structure: a pooled one, Reset when its window closed, about to serve
// another window.
func (g *GroupReservoirs) Reseed(perGroup int, seed int64) {
	if perGroup <= 0 {
		panic("sample: per-group capacity must be positive")
	}
	if len(g.ids) > 0 {
		panic("sample: Reseed of group reservoirs in use")
	}
	g.perGroup, g.seed = perGroup, seed
}

// Add offers one (group, value) observation.
func (g *GroupReservoirs) Add(key string, value float64) { g.AddID(g.dict.ID(key), value) }

// AddID is Add for a group already resolved to its id in the
// dictionary g was created from.
func (g *GroupReservoirs) AddID(id uint32, value float64) {
	i := g.find(id)
	if i == 0 {
		i = g.open(id)
	}
	g.res[i-1].Add(value)
}

// open enters group id with an empty reservoir and returns its position
// plus one.
func (g *GroupReservoirs) open(id uint32) uint32 {
	i := g.enter(id)
	if int(i) <= cap(g.res) {
		g.res = g.res[:i] // an earlier window's entry: its sample storage is reused
	} else {
		g.res = append(g.res, Reservoir{})
	}
	// Derive a per-group seed so groups are independent streams but
	// the whole structure stays deterministic.
	seed := g.seed
	for _, c := range g.dict.keys[id] {
		seed = seed*31 + int64(c)
	}
	g.res[i-1].init(g.perGroup, seed)
	return i
}

// PerGroup returns the current per-group capacity.
func (g *GroupReservoirs) PerGroup() int { return g.perGroup }

// Resize changes the per-group capacity: existing reservoirs are
// resized in place (Reservoir.Resize — a seeded uniform down-sample on
// shrink), new groups are created at the new capacity. Because every
// group shrinks or grows by the same factor, per-group error degrades
// (or recovers) evenly across strata instead of starving rare groups.
func (g *GroupReservoirs) Resize(perGroup int) {
	if perGroup <= 0 {
		panic("sample: per-group capacity must be positive")
	}
	if perGroup == g.perGroup {
		return
	}
	g.perGroup = perGroup
	for i := range g.res {
		g.res[i].Resize(perGroup)
	}
}

// Len returns the number of distinct groups observed.
func (g *GroupReservoirs) Len() int { return len(g.ids) }

// Each calls fn for every (group, reservoir) pair, in order of first
// arrival.
func (g *GroupReservoirs) Each(fn func(key string, r *Reservoir)) {
	for i, id := range g.ids {
		fn(g.dict.keys[id], &g.res[i])
	}
}

// Reset clears all groups for the next window, keeping the storage
// (each reservoir's sample array included), and gives the groups' ids
// back to the dictionary.
func (g *GroupReservoirs) Reset() {
	g.reset()
	g.res = g.res[:0]
}

// MemSize returns the approximate footprint in bytes: per group seen,
// its key, its reservoir (every one is at the per-group capacity) and
// ~48 bytes of entry overhead.
func (g *GroupReservoirs) MemSize() int {
	return g.keyMem + len(g.ids)*(8*g.perGroup+48+48)
}
