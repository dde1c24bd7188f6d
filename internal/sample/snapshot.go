package sample

import (
	"spear/internal/stats"
	"spear/internal/tuple"
)

// Checkpoint codecs for the sampling structures. Encodings use the
// tuple wire primitives; maps are serialized in sorted key order so a
// snapshot of identical state is byte-identical regardless of Go's map
// iteration order (checksums in the checkpoint manifest depend on it).

// AppendTo appends the reservoir's full state: capacity, algorithm,
// arrival count, Algorithm-L skip state, the 8-byte PRNG state, and the
// sample items. Restoring this and replaying the same suffix of the
// stream yields the identical sample an uninterrupted run would hold.
func (r *Reservoir) AppendTo(dst []byte) []byte {
	dst = tuple.AppendUvar(dst, uint64(r.cap))
	dst = append(dst, byte(r.algo))
	dst = tuple.AppendI64(dst, r.seen)
	dst = tuple.AppendF64(dst, r.w)
	dst = tuple.AppendI64(dst, r.next)
	dst = tuple.AppendU64(dst, r.rng.State())
	dst = tuple.AppendUvar(dst, uint64(len(r.items)))
	for _, x := range r.items {
		dst = tuple.AppendF64(dst, x)
	}
	return dst
}

// ReadReservoir decodes a reservoir encoded by AppendTo. Malformed
// input latches an error in rd and returns nil.
func ReadReservoir(rd *tuple.WireReader) *Reservoir {
	capacity := rd.Uvar()
	algoByte := rd.Byte()
	seen := rd.I64()
	w := rd.F64()
	next := rd.I64()
	rngState := rd.U64()
	n := rd.Count(8)
	if rd.Err() != nil {
		return nil
	}
	if capacity == 0 || capacity > 1<<24 {
		rd.Corrupt("reservoir capacity")
		return nil
	}
	if ReservoirAlgo(algoByte) > AlgoR {
		rd.Corrupt("reservoir algorithm")
		return nil
	}
	if uint64(n) > capacity || seen < int64(n) {
		rd.Corrupt("reservoir sample size")
		return nil
	}
	r := NewReservoir(int(capacity), 0, ReservoirAlgo(algoByte))
	r.seen = seen
	r.w = w
	r.next = next
	r.rng.SetState(rngState)
	r.items = make([]float64, n)
	for i := range r.items {
		r.items[i] = rd.F64()
	}
	if rd.Err() != nil {
		return nil
	}
	return r
}

// AppendTo appends the per-group frequency/variance accumulators in
// sorted group order.
func (g *GroupStats) AppendTo(dst []byte) []byte {
	dst = tuple.AppendUvar(dst, uint64(len(g.ids)))
	g.EachSorted(func(key string, w *stats.Welford) {
		dst = tuple.AppendStr(dst, key)
		dst = w.AppendTo(dst)
	})
	return dst
}

// ReadGroupStats decodes a GroupStats encoded by AppendTo, giving its
// groups ids in d. On malformed input it returns nil and d may be left
// holding ids nobody releases: decode into a dictionary that is thrown
// away with the failed restore.
func (d *KeyDict) ReadGroupStats(rd *tuple.WireReader) *GroupStats {
	n := rd.Count(1 + 48) // key length byte + welford
	if rd.Err() != nil {
		return nil
	}
	g := d.NewGroupStats()
	for i := 0; i < n; i++ {
		k := rd.Str()
		var w stats.Welford
		w.ReadFrom(rd)
		if rd.Err() != nil {
			return nil
		}
		id := d.ID(k)
		if g.find(id) != 0 {
			rd.Corrupt("duplicate group key")
			return nil
		}
		g.vals[g.open(id)-1] = w
		g.total += w.Count()
	}
	return g
}

// AppendTo appends the per-group reservoirs in sorted group order.
func (g *GroupReservoirs) AppendTo(dst []byte) []byte {
	dst = tuple.AppendUvar(dst, uint64(g.perGroup))
	dst = tuple.AppendI64(dst, g.seed)
	dst = append(dst, byte(g.algo))
	dst = tuple.AppendUvar(dst, uint64(len(g.ids)))
	for _, id := range g.dict.sorted(g.ids) {
		dst = tuple.AppendStr(dst, g.dict.keys[id])
		dst = g.res[g.pos[id]-1].AppendTo(dst)
	}
	return dst
}

// ReadGroupReservoirs decodes a GroupReservoirs encoded by AppendTo,
// giving its groups ids in d (see KeyDict.ReadGroupStats on failure).
func (d *KeyDict) ReadGroupReservoirs(rd *tuple.WireReader) *GroupReservoirs {
	perGroup := rd.Uvar()
	seed := rd.I64()
	algoByte := rd.Byte()
	n := rd.Count(1)
	if rd.Err() != nil {
		return nil
	}
	if perGroup == 0 || perGroup > 1<<24 {
		rd.Corrupt("per-group capacity")
		return nil
	}
	if ReservoirAlgo(algoByte) > AlgoR {
		rd.Corrupt("group reservoir algorithm")
		return nil
	}
	g := d.NewGroupReservoirs(int(perGroup), seed, ReservoirAlgo(algoByte))
	for i := 0; i < n; i++ {
		k := rd.Str()
		r := ReadReservoir(rd)
		if rd.Err() != nil {
			return nil
		}
		if r.cap != int(perGroup) {
			rd.Corrupt("group reservoir capacity mismatch")
			return nil
		}
		id := d.ID(k)
		if g.find(id) != 0 {
			rd.Corrupt("duplicate group key")
			return nil
		}
		g.res[g.open(id)-1] = *r
	}
	return g
}
