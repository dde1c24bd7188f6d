package sample

import (
	"math"
	"testing"
)

// TestAddSliceEquivalence pins the columnar contract: AddSlice must be
// indistinguishable from a sequential Add loop — same sample contents,
// same seen count, and (the subtle part) the same PRNG draw sequence,
// verified by continuing with interleaved per-item adds afterwards.
func TestAddSliceEquivalence(t *testing.T) {
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * 100
	}
	for _, algo := range []ReservoirAlgo{AlgoL, AlgoR} {
		for _, capacity := range []int{1, 7, 100, 4999, 6000} {
			for _, chunk := range []int{1, 3, 64, 1000, len(vals)} {
				ref := NewReservoir(capacity, 42, algo)
				got := NewReservoir(capacity, 42, algo)
				for _, v := range vals {
					ref.Add(v)
				}
				for i := 0; i < len(vals); i += chunk {
					end := i + chunk
					if end > len(vals) {
						end = len(vals)
					}
					got.AddSlice(vals[i:end])
				}
				// Tail adds prove the PRNG streams stayed aligned.
				for i := 0; i < 500; i++ {
					ref.Add(float64(i))
					got.Add(float64(i))
				}
				if ref.Seen() != got.Seen() {
					t.Fatalf("algo=%d cap=%d chunk=%d: seen %d vs %d",
						algo, capacity, chunk, ref.Seen(), got.Seen())
				}
				r, g := ref.Items(), got.Items()
				if len(r) != len(g) {
					t.Fatalf("algo=%d cap=%d chunk=%d: len %d vs %d",
						algo, capacity, chunk, len(r), len(g))
				}
				for j := range r {
					if math.Float64bits(r[j]) != math.Float64bits(g[j]) {
						t.Fatalf("algo=%d cap=%d chunk=%d: item %d: %v vs %v",
							algo, capacity, chunk, j, r[j], g[j])
					}
				}
			}
		}
	}
}

func TestAddSliceEmpty(t *testing.T) {
	r := NewReservoir(4, 1, AlgoL)
	r.AddSlice(nil)
	r.AddSlice([]float64{})
	if r.Seen() != 0 || r.Len() != 0 {
		t.Fatalf("empty AddSlice mutated state: seen=%d len=%d", r.Seen(), r.Len())
	}
}

// TestAddSliceEquivalenceAcrossResizes repeats the contract with the
// capacity moving mid-stream — every scalar window now takes AddSlice,
// so the adaptive controller's shrinks and grows meet it — including a
// shrink to exactly the number of items seen so far.
func TestAddSliceEquivalenceAcrossResizes(t *testing.T) {
	vals := make([]float64, 4000)
	for i := range vals {
		vals[i] = math.Cos(float64(i)) * 50
	}
	resizes := map[int]int{100: 100, 700: 40, 1500: 90, 2600: 10, 3300: 300}
	for _, chunk := range []int{1, 7, 64, 1000} {
		ref := NewReservoir(150, 9, AlgoL)
		got := NewReservoir(150, 9, AlgoL)
		for i := 0; i < len(vals); {
			if c, ok := resizes[i]; ok {
				ref.Resize(c)
				got.Resize(c)
			}
			end := min(i+chunk, len(vals))
			for at := range resizes { // cut the chunk at the next resize
				if at > i && at < end {
					end = at
				}
			}
			for _, v := range vals[i:end] {
				ref.Add(v)
			}
			got.AddSlice(vals[i:end])
			i = end
			if string(ref.AppendTo(nil)) != string(got.AppendTo(nil)) {
				t.Fatalf("chunk=%d: states differ after %d items", chunk, i)
			}
		}
	}
}

// TestResizeToExactlySeenKeepsSampling is the regression test for a
// shrink that landed on exactly the number of items seen: the reservoir
// became full in its pristine fill state, the first skip that Add draws
// when the fill completes was never drawn, and the sample froze at the
// stream's first items for good.
func TestResizeToExactlySeenKeepsSampling(t *testing.T) {
	r := NewReservoir(150, 3, AlgoL)
	for i := 0; i < 100; i++ {
		r.Add(float64(i))
	}
	r.Resize(100)
	for i := 100; i < 10_000; i++ {
		r.Add(float64(i))
	}
	later := 0
	for _, v := range r.Items() {
		if v >= 100 {
			later++
		}
	}
	// A uniform sample of 10 000 holds about one of the first 100.
	if later < 90 {
		t.Fatalf("%d of %d sampled items arrived after the resize; the sample is frozen", later, r.Len())
	}
}

// TestAddSliceBehindScheduleAdmitsNothing: a full reservoir whose next
// admission lies behind the stream (a damaged snapshot can restore one)
// admits nothing under Add, and AddSlice must do the same rather than
// index backwards.
func TestAddSliceBehindScheduleAdmitsNothing(t *testing.T) {
	mk := func() *Reservoir {
		r := NewReservoir(4, 1, AlgoL)
		r.AddSlice([]float64{1, 2, 3, 4})
		r.seen, r.next = 50, 20
		return r
	}
	ref, got := mk(), mk()
	xs := []float64{5, 6, 7}
	for _, x := range xs {
		ref.Add(x)
	}
	got.AddSlice(xs)
	if string(ref.AppendTo(nil)) != string(got.AppendTo(nil)) {
		t.Fatalf("AddSlice %v seen=%d, Add %v seen=%d", got.Items(), got.Seen(), ref.Items(), ref.Seen())
	}
}
