package sample

import (
	"math/bits"
	"testing"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed is not deterministic")
	}
}

func TestDeriveSeedLabelSensitivity(t *testing.T) {
	base := int64(42)
	seen := map[int64]int64{}
	for label := int64(0); label < 1000; label++ {
		s := DeriveSeed(base, label)
		if prev, dup := seen[s]; dup {
			t.Fatalf("labels %d and %d collide: %d", prev, label, s)
		}
		seen[s] = label
	}
}

func TestDeriveSeedOrderMatters(t *testing.T) {
	if DeriveSeed(7, 1, 2) == DeriveSeed(7, 2, 1) {
		t.Fatal("label order should matter")
	}
	if DeriveSeed(7) == DeriveSeed(7, 0) {
		t.Fatal("appending a label should change the seed")
	}
}

// TestDeriveSeedAvalanche checks decorrelation for adjacent labels: the
// Hamming distance between seeds of neighboring windows must hover
// around 32 of 64 bits — the whole point of replacing seed+id
// arithmetic (whose neighboring outputs differ in ~1 bit).
func TestDeriveSeedAvalanche(t *testing.T) {
	const n = 2000
	total := 0
	for i := int64(0); i < n; i++ {
		a := uint64(DeriveSeed(99, i))
		b := uint64(DeriveSeed(99, i+1))
		total += bits.OnesCount64(a ^ b)
	}
	mean := float64(total) / n
	if mean < 28 || mean > 36 {
		t.Fatalf("mean Hamming distance %.2f, want ≈32 (decorrelated)", mean)
	}
}

// TestDeriveSeedReservoirIndependence is the end-to-end property: two
// reservoirs seeded for adjacent windows must make different admission
// choices, not shifted copies of one stream.
func TestDeriveSeedReservoirIndependence(t *testing.T) {
	r1 := NewReservoir(32, DeriveSeed(5, 1000), AlgoL)
	r2 := NewReservoir(32, DeriveSeed(5, 1001), AlgoL)
	for i := 0; i < 5000; i++ {
		r1.Add(float64(i))
		r2.Add(float64(i))
	}
	same := 0
	for i, v := range r1.Items() {
		if r2.Items()[i] == v {
			same++
		}
	}
	if same == r1.Len() {
		t.Fatal("adjacent-window reservoirs sampled identically")
	}
}
