package sample

import (
	"bytes"
	"testing"

	"spear/internal/tuple"
)

// fuzzSeedStructs returns canonical encodings of populated sampling
// structures to seed the corpus.
func fuzzSeedStructs() [][]byte {
	r := NewReservoir(8, 42, AlgoL)
	for i := 0; i < 100; i++ {
		r.Add(float64(i))
	}
	gs := NewKeyDict().NewGroupStats()
	gs.AddID(gs.dict.ID("a"), 1)
	gs.AddID(gs.dict.ID("a"), 2)
	gs.AddID(gs.dict.ID("b"), -3)
	gr := NewGroupReservoirs(4, 7, AlgoL)
	for i := 0; i < 20; i++ {
		gr.Add("g", float64(i))
	}
	empty := NewReservoir(1, 0, AlgoL)
	return [][]byte{
		r.AppendTo(nil), gs.AppendTo(nil), gr.AppendTo(nil), empty.AppendTo(nil),
	}
}

// FuzzSampleRestore feeds arbitrary bytes to the three sampling-state
// decoders. None may panic; a successful decode must re-encode to a
// fixed point (the snapshot checksum in the checkpoint manifest relies
// on encoding being canonical).
func FuzzSampleRestore(f *testing.F) {
	for _, b := range fuzzSeedStructs() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		if r := ReadReservoir(tuple.NewWireReader(b)); r != nil {
			enc := r.AppendTo(nil)
			r2 := ReadReservoir(tuple.NewWireReader(enc))
			if r2 == nil {
				t.Fatal("re-decode of re-encoded reservoir failed")
			}
			if !bytes.Equal(enc, r2.AppendTo(nil)) {
				t.Fatal("reservoir encoding is not a fixed point")
			}
		}
		if g := NewKeyDict().ReadGroupStats(tuple.NewWireReader(b)); g != nil {
			enc := g.AppendTo(nil)
			g2 := NewKeyDict().ReadGroupStats(tuple.NewWireReader(enc))
			if g2 == nil {
				t.Fatal("re-decode of re-encoded group stats failed")
			}
			if !bytes.Equal(enc, g2.AppendTo(nil)) {
				t.Fatal("group stats encoding is not a fixed point")
			}
		}
		if g := NewKeyDict().ReadGroupReservoirs(tuple.NewWireReader(b)); g != nil {
			enc := g.AppendTo(nil)
			g2 := NewKeyDict().ReadGroupReservoirs(tuple.NewWireReader(enc))
			if g2 == nil {
				t.Fatal("re-decode of re-encoded group reservoirs failed")
			}
			if !bytes.Equal(enc, g2.AppendTo(nil)) {
				t.Fatal("group reservoirs encoding is not a fixed point")
			}
		}
	})
}
