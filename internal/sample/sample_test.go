package sample

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"spear/internal/stats"
)

// CongressAllocate is GroupStats.CongressAllocate over a frequency map:
// the reference the method and its properties are checked against.
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

func TestReservoirFillPhase(t *testing.T) {
	r := NewReservoir(5, 1, AlgoL)
	for i := 0; i < 3; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 3 || r.Seen() != 3 {
		t.Errorf("len=%d seen=%d", r.Len(), r.Seen())
	}
	// Under capacity, the sample is exactly the stream.
	for i, x := range r.Items() {
		if x != float64(i) {
			t.Errorf("item %d = %v", i, x)
		}
	}
}

func TestReservoirNeverExceedsCap(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := NewReservoir(10, seed, AlgoL)
		for i := 0; i < int(n); i++ {
			r.Add(float64(i))
		}
		want := int(n)
		if want > 10 {
			want = 10
		}
		if r.Len() != want || r.Seen() != int64(n) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReservoirItemsComeFromStream(t *testing.T) {
	r := NewReservoir(50, 3, AlgoL)
	for i := 0; i < 10000; i++ {
		r.Add(float64(i) * 2) // even values only
	}
	for _, x := range r.Items() {
		if math.Mod(x, 2) != 0 || x < 0 || x >= 20000 {
			t.Fatalf("sample contains %v, not from stream", x)
		}
	}
}

// Uniformity: every stream position should be selected with probability
// k/N. Run many trials and check per-position inclusion frequencies.
func TestReservoirUniformity(t *testing.T) {
	const (
		N      = 200
		k      = 20
		trials = 3000
	)
	counts := make([]int, N)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(k, int64(trial)+1, AlgoL)
		for i := 0; i < N; i++ {
			r.Add(float64(i))
		}
		for _, x := range r.Items() {
			counts[int(x)]++
		}
	}
	want := float64(trials) * k / N // expected inclusions per position
	// Binomial stddev ≈ √(trials·p(1−p)); allow 5σ.
	sigma := math.Sqrt(float64(trials) * (float64(k) / N) * (1 - float64(k)/N))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Errorf("position %d included %d times, want ≈%.0f (±%.0f)",
				i, c, want, 5*sigma)
		}
	}
	// Chi-square-ish global check: mean inclusion must be exact.
	var total int
	for _, c := range counts {
		total += c
	}
	if total != trials*k {
		t.Errorf("total inclusions %d != %d", total, trials*k)
	}
}

func TestReservoirPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewReservoir(0, 1, AlgoL)
}

func TestReservoirMemSize(t *testing.T) {
	if NewReservoir(100, 1, AlgoL).MemSize() < 800 {
		t.Error("MemSize should charge for capacity")
	}
}

func TestCongressAllocateBasics(t *testing.T) {
	freqs := map[string]int64{"a": 700, "b": 200, "c": 100}
	alloc := CongressAllocate(freqs, 100)
	sum := 0
	for k, n := range alloc {
		if n < 1 {
			t.Errorf("group %s got %d, want ≥ 1", k, n)
		}
		if int64(n) > freqs[k] {
			t.Errorf("group %s got %d > frequency %d", k, n, freqs[k])
		}
		sum += n
	}
	if sum > 100 {
		t.Errorf("allocation sum %d exceeds budget", sum)
	}
	// House effect: a (7× the tuples of c) gets more slots than c.
	if alloc["a"] <= alloc["c"] {
		t.Errorf("proportionality violated: a=%d c=%d", alloc["a"], alloc["c"])
	}
}

func TestCongressAllocateSenateFloor(t *testing.T) {
	// One huge group, many singletons: every singleton must still be
	// represented (the paper's DEBS sparsity case).
	freqs := map[string]int64{"big": 100000}
	for i := 0; i < 50; i++ {
		freqs[string(rune('A'+i))] = 1
	}
	alloc := CongressAllocate(freqs, 200)
	for k, f := range freqs {
		if f == 1 && alloc[k] != 1 {
			t.Errorf("singleton %s got %d, want 1", k, alloc[k])
		}
	}
	if alloc["big"] < 50 {
		t.Errorf("big group got %d, want the bulk of the budget", alloc["big"])
	}
}

func TestCongressAllocateDegenerate(t *testing.T) {
	if CongressAllocate(nil, 100) != nil {
		t.Error("nil freqs should give nil")
	}
	if CongressAllocate(map[string]int64{"a": 1}, 0) != nil {
		t.Error("zero budget should give nil")
	}
	if CongressAllocate(map[string]int64{"a": 0}, 10) != nil {
		t.Error("all-zero freqs should give nil")
	}
	// Budget below the group count: floors win, sum may exceed budget
	// only if it cannot be shaved below one per group.
	alloc := CongressAllocate(map[string]int64{"a": 5, "b": 5, "c": 5}, 2)
	for k, n := range alloc {
		if n != 1 {
			t.Errorf("group %s = %d, want floor of 1", k, n)
		}
	}
}

func TestCongressAllocatePropertySumAndFloors(t *testing.T) {
	f := func(sizes []uint16, budgetRaw uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		freqs := make(map[string]int64)
		for i, s := range sizes {
			freqs[string(rune('a'+i%26))+string(rune('A'+i/26))] = int64(s%1000) + 1
		}
		budget := int(budgetRaw%5000) + len(freqs) // budget ≥ #groups
		alloc := CongressAllocate(freqs, budget)
		sum := 0
		for k, n := range alloc {
			if n < 1 || int64(n) > freqs[k] {
				return false
			}
			sum += n
		}
		return sum <= budget && len(alloc) == len(freqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStratifiedFromBuffer(t *testing.T) {
	keys := make([]string, 0, 1000)
	vals := make([]float64, 0, 1000)
	for i := 0; i < 900; i++ {
		keys = append(keys, "big")
		vals = append(vals, float64(i))
	}
	for i := 0; i < 100; i++ {
		keys = append(keys, "small")
		vals = append(vals, float64(1000+i))
	}
	alloc := map[string]int{"big": 90, "small": 10}
	got := StratifiedFromBuffer(keys, vals, alloc, 42)
	if len(got["big"]) != 90 || len(got["small"]) != 10 {
		t.Fatalf("sizes: big=%d small=%d", len(got["big"]), len(got["small"]))
	}
	for _, v := range got["big"] {
		if v < 0 || v >= 900 {
			t.Fatalf("big sample has foreign value %v", v)
		}
	}
	for _, v := range got["small"] {
		if v < 1000 || v >= 1100 {
			t.Fatalf("small sample has foreign value %v", v)
		}
	}
}

func TestStratifiedFromBufferSkipsUnallocated(t *testing.T) {
	got := StratifiedFromBuffer(
		[]string{"a", "b", "a"},
		[]float64{1, 2, 3},
		map[string]int{"a": 2},
		1,
	)
	if _, ok := got["b"]; ok {
		t.Error("unallocated group should be absent")
	}
	if len(got["a"]) != 2 {
		t.Errorf("a sample = %v", got["a"])
	}
}

func TestStratifiedFromBufferMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	StratifiedFromBuffer([]string{"a"}, nil, nil, 1)
}

func TestGroupStats(t *testing.T) {
	g := NewKeyDict().NewGroupStats()
	g.AddID(g.dict.ID("r1"), 10)
	g.AddID(g.dict.ID("r1"), 20)
	g.AddID(g.dict.ID("r2"), 5)
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	if w := g.Get("r1"); w.Count() != 2 || w.Mean() != 15 {
		t.Errorf("r1 stats: count=%d mean=%v", w.Count(), w.Mean())
	}
	if g.Get("missing") != nil {
		t.Error("missing group should be nil")
	}
	if got, want := g.CongressAllocate(2), CongressAllocate(map[string]int64{"r1": 2, "r2": 1}, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("CongressAllocate over the accumulator = %v, over the frequencies = %v", got, want)
	}
	if g.Total() != 3 {
		t.Errorf("Total = %d", g.Total())
	}
	seen := map[string]int64{}
	g.Each(func(k string, w *stats.Welford) { seen[k] = w.Count() })
	if len(seen) != 2 {
		t.Errorf("Each visited %v", seen)
	}
	if g.MemSize() <= 0 {
		t.Error("MemSize should be positive")
	}
	m1 := g.MemSize()
	g.AddID(g.dict.ID("a-much-longer-group-identifier"), 1)
	if g.MemSize() <= m1 {
		t.Error("MemSize should grow with key bytes")
	}
	g.Reset()
	if g.Len() != 0 || g.Total() != 0 || g.MemSize() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestGroupReservoirs(t *testing.T) {
	g := NewGroupReservoirs(5, 7, AlgoL)
	for i := 0; i < 100; i++ {
		g.Add("a", float64(i))
		if i < 3 {
			g.Add("b", float64(i+1000))
		}
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	res := map[string]*Reservoir{}
	g.Each(func(k string, r *Reservoir) { res[k] = r })
	if r := res["a"]; r.Len() != 5 || r.Seen() != 100 {
		t.Errorf("a: len=%d seen=%d", r.Len(), r.Seen())
	}
	if r := res["b"]; r.Len() != 3 {
		t.Errorf("b: len=%d, want all 3", r.Len())
	}
	for _, v := range res["b"].Items() {
		if v < 1000 {
			t.Errorf("b sample contaminated: %v", v)
		}
	}
	n := 0
	g.Each(func(string, *Reservoir) { n++ })
	if n != 2 {
		t.Errorf("Each visited %d", n)
	}
	if g.MemSize() <= 0 {
		t.Error("MemSize should be positive")
	}
	g.Reset()
	if g.Len() != 0 {
		t.Error("Reset did not clear")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero capacity")
		}
	}()
	NewGroupReservoirs(0, 1, AlgoL)
}

// Determinism: the same seed must reproduce the same sample.
func TestReservoirDeterministic(t *testing.T) {
	a := NewReservoir(10, 123, AlgoL)
	b := NewReservoir(10, 123, AlgoL)
	for i := 0; i < 5000; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	for i := range a.Items() {
		if a.Items()[i] != b.Items()[i] {
			t.Fatalf("not deterministic")
		}
	}
}

func BenchmarkReservoirAlgoL(b *testing.B) {
	r := NewReservoir(1000, 1, AlgoL)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(float64(i))
	}
}

func BenchmarkGroupStatsAdd(b *testing.B) {
	g := NewKeyDict().NewGroupStats()
	keys := []string{"c0", "c1", "c2", "c3"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.AddID(g.dict.ID(keys[i&3]), float64(i))
	}
}
