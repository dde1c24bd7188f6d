package sample

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spear/internal/tuple"
)

// ---- CongressAllocate properties ----

// TestCongressAllocateProperties is the property test for the grouped
// budget allocator: across randomized frequency maps it must be
// deterministic, never exceed the budget after rounding, cap every
// group at its frequency, and give every nonzero-frequency group at
// least one slot exactly when the budget permits (pos ≤ budget) —
// returning nil (infeasible, caller falls back to exact) otherwise.
func TestCongressAllocateProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		g := 1 + rng.Intn(40)
		freqs := make(map[string]int64, g)
		pos := 0
		for i := 0; i < g; i++ {
			f := int64(rng.Intn(50)) // zero-frequency groups allowed
			if f > 0 {
				pos++
			}
			freqs[string(rune('a'+i%26))+string(rune('0'+i/26))] = f
		}
		budget := 1 + rng.Intn(60)

		got := CongressAllocate(freqs, budget)
		again := CongressAllocate(freqs, budget)
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("trial %d: allocation not deterministic:\n%v\n%v", trial, got, again)
		}

		if pos == 0 || pos > budget {
			if got != nil {
				t.Fatalf("trial %d: infeasible (pos=%d budget=%d) must be nil, got %v",
					trial, pos, budget, got)
			}
			continue
		}
		if got == nil {
			t.Fatalf("trial %d: feasible (pos=%d budget=%d) returned nil", trial, pos, budget)
		}
		sum := 0
		for k, n := range got {
			sum += n
			if int64(n) > freqs[k] {
				t.Fatalf("trial %d: group %q allocated %d > frequency %d", trial, k, n, freqs[k])
			}
			if n < 0 {
				t.Fatalf("trial %d: group %q negative allocation %d", trial, k, n)
			}
		}
		if sum > budget {
			t.Fatalf("trial %d: allocation sum %d exceeds budget %d: %v", trial, sum, budget, got)
		}
		for k, f := range freqs {
			if f > 0 && got[k] < 1 {
				t.Fatalf("trial %d: group %q (freq %d) unrepresented within feasible budget %d: %v",
					trial, k, f, budget, got)
			}
		}
	}
}

// TestCongressAllocateInfeasibleBudget pins the regression: with more
// nonzero-frequency groups than budget tuples, the old trim loop
// returned one slot per group — summing above the budget. The fix
// reports infeasibility as nil.
func TestCongressAllocateInfeasibleBudget(t *testing.T) {
	freqs := map[string]int64{"a": 10, "b": 10, "c": 10, "d": 10, "e": 10}
	if got := CongressAllocate(freqs, 3); got != nil {
		t.Fatalf("budget 3 for 5 groups must be infeasible (nil), got %v", got)
	}
	if got := CongressAllocate(freqs, 5); got == nil {
		t.Fatal("budget 5 for 5 groups is feasible, got nil")
	}
}

// ---- Reservoir.Resize ----

func fill(r *Reservoir, n int) {
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
}

// TestResizeNoopKeepsStreamIdentity: Resize to the current capacity
// must be invisible — the subsequent admission stream stays
// bit-identical to an untouched twin.
func TestResizeNoopKeepsStreamIdentity(t *testing.T) {
	a := NewReservoir(50, 42, AlgoL)
	b := NewReservoir(50, 42, AlgoL)
	fill(a, 500)
	fill(b, 500)
	a.Resize(50)
	fill(a, 500)
	fill(b, 500)
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("no-op Resize changed the sample")
	}
}

// TestResizeShrinkInvariants: shrinking keeps a subset of the previous
// sample at exactly the new capacity, deterministically per seed.
func TestResizeShrinkInvariants(t *testing.T) {
	r := NewReservoir(100, 9, AlgoL)
	fill(r, 10_000)
	before := map[float64]bool{}
	for _, v := range r.Items() {
		before[v] = true
	}
	r.Resize(30)
	if r.Len() != 30 || r.Cap() != 30 {
		t.Fatalf("shrink to 30 left len=%d cap=%d", r.Len(), r.Cap())
	}
	for _, v := range r.Items() {
		if !before[v] {
			t.Fatalf("shrink invented value %v", v)
		}
	}
	// Determinism: same seed, same stream, same shrink → same bits.
	r2 := NewReservoir(100, 9, AlgoL)
	fill(r2, 10_000)
	r2.Resize(30)
	if !reflect.DeepEqual(r.Snapshot(), r2.Snapshot()) {
		t.Fatalf("shrink not deterministic")
	}
	// The reservoir keeps working after the shrink.
	fill(r, 10_000)
	if r.Len() != 30 {
		t.Fatalf("post-shrink sample drifted to %d", r.Len())
	}
}

// TestResizeShrinkUniformity: after shrinking, each stream element must
// be retained with (near) equal probability — the subset draw must not
// bias toward any region of the stream. Chi-squared-style tolerance
// over many independent seeds.
func TestResizeShrinkUniformity(t *testing.T) {
	const (
		n      = 200 // stream length
		cap0   = 80
		capNew = 20
		trials = 3000
	)
	counts := make([]int, n)
	for seed := int64(0); seed < trials; seed++ {
		r := NewReservoir(cap0, seed, AlgoL)
		fill(r, n)
		r.Resize(capNew)
		for _, v := range r.Items() {
			counts[int(v)]++
		}
	}
	// Each element: p = capNew/n, expectation trials·p.
	p := float64(capNew) / float64(n)
	mean := float64(trials) * p
	sigma := math.Sqrt(float64(trials) * p * (1 - p))
	for i, c := range counts {
		if math.Abs(float64(c)-mean) > 6*sigma {
			t.Fatalf("element %d retained %d times, want %.1f ± %.1f (6σ): shrink not uniform",
				i, c, mean, 6*sigma)
		}
	}
}

// TestResizeGrowConverges: growing the capacity lets the sample climb
// back toward the new target while remaining a subset of the stream,
// deterministically.
func TestResizeGrowConverges(t *testing.T) {
	r := NewReservoir(20, 5, AlgoL)
	fill(r, 2_000)
	r.Resize(200)
	if r.Len() != 20 {
		t.Fatalf("grow must not invent items, len=%d", r.Len())
	}
	for i := 2_000; i < 40_000; i++ {
		r.Add(float64(i))
	}
	// E[len] ≈ 200·(1 − 2000/40000·(1−20/200)) ≫ 150; in practice it
	// converges essentially to cap. Assert a conservative floor.
	if r.Len() < 150 {
		t.Fatalf("sample did not converge toward grown cap: len=%d", r.Len())
	}
	if r.Len() > 200 {
		t.Fatalf("sample exceeded cap: %d", r.Len())
	}
	r2 := NewReservoir(20, 5, AlgoL)
	fill(r2, 2_000)
	r2.Resize(200)
	for i := 2_000; i < 40_000; i++ {
		r2.Add(float64(i))
	}
	if !reflect.DeepEqual(r.Snapshot(), r2.Snapshot()) {
		t.Fatalf("grow-then-stream not deterministic")
	}
}

// TestResizeGrowDuringFill: growing while still in the fill phase keeps
// the pristine fill behavior (every arrival admitted until cap).
func TestResizeGrowDuringFill(t *testing.T) {
	r := NewReservoir(10, 3, AlgoL)
	for i := 0; i < 5; i++ { // mid-fill: sample == prefix
		r.Add(float64(i))
	}
	r.Resize(40)
	for i := 5; i < 35; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 35 {
		t.Fatalf("fill-phase grow must keep admitting everything: len=%d want 35", r.Len())
	}
	for i, v := range r.Items() {
		if v != float64(i) {
			t.Fatalf("fill-phase sample must equal the prefix; item %d = %v", i, v)
		}
	}
}

// TestResizeSnapshotRoundTrip: a resized reservoir survives the wire
// codec (post-grow states have len < cap with seen > len).
func TestResizeSnapshotRoundTrip(t *testing.T) {
	r := NewReservoir(20, 11, AlgoL)
	fill(r, 1_000)
	r.Resize(100) // len 20 < cap 100, seen 1000
	blob := r.AppendTo(nil)
	rd := tuple.NewWireReader(blob)
	got := ReadReservoir(rd)
	if err := rd.Err(); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	fill(r, 5_000)
	fill(got, 5_000)
	if !reflect.DeepEqual(r.Snapshot(), got.Snapshot()) {
		t.Fatal("restored reservoir diverged from original after more input")
	}
}

// TestGroupReservoirsResize: resizing applies the new per-group cap to
// every group's reservoir, shrinking evenly.
func TestGroupReservoirsResize(t *testing.T) {
	g := NewGroupReservoirs(50, 1, AlgoL)
	for i := 0; i < 3_000; i++ {
		g.Add(string(rune('a'+i%3)), float64(i))
	}
	g.Resize(10)
	if g.PerGroup() != 10 {
		t.Fatalf("PerGroup = %d, want 10", g.PerGroup())
	}
	g.Each(func(key string, r *Reservoir) {
		if r.Cap() != 10 || r.Len() != 10 {
			t.Fatalf("group %q cap=%d len=%d after even shrink to 10", key, r.Cap(), r.Len())
		}
	})
}
