package sample

import (
	"hash/maphash"
	"slices"
	"strings"
)

// KeyDict assigns dense uint32 ids to group keys so that per-window
// grouped state can be arrays reached through an index by id instead of
// a map keyed by string: a tuple's key is hashed once, however many
// windows it falls into. One dictionary is shared by every GroupStats and GroupReservoirs
// created from it (one per GroupedManager); an id stays assigned while
// at least one of them holds the group, and returns to the free list —
// its key leaving the table — when the last holder is Reset, so the
// dictionary is bounded by the groups of the open windows.
//
// The table is the dictionary's own and not a Go map because a window of
// the paper's grouped dataset sees about half its keys once: a miss on a
// map is a lookup, an insert and later a delete, each hashing the key
// again, where here a miss ends at the slot the key goes into and
// removal finds the slot from the stored hash (DESIGN.md §18 has the
// measurement).
type KeyDict struct {
	// table is open addressing with linear probing, at most half full:
	// a slot holds the key's 32-bit hash in its high half and id+1 in
	// its low half, zero when empty. Removal shifts the run back over
	// the hole and leaves no tombstone, so steady churn never forces a
	// rebuild; the table grows only when the dictionary does.
	table []uint64
	seed  maphash.Seed
	n     int      // keys assigned an id
	keys  []string // id → key ("" while the id is free)
	tags  []uint32 // id → the key's hash, so that removal need not rehash
	refs  []int32  // id → structures holding the group
	free  []uint32
}

// NewKeyDict returns an empty dictionary.
func NewKeyDict() *KeyDict {
	return &KeyDict{table: make([]uint64, 64), seed: maphash.MakeSeed()}
}

// find probes for key, whose hash is h: the id and true on a hit, the
// empty slot that ends the probe and false on a miss.
func (d *KeyDict) find(key string, h uint32) (at uint32, ok bool) {
	mask := uint32(len(d.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := d.table[i]
		if e == 0 {
			return i, false
		}
		if id := uint32(e) - 1; uint32(e>>32) == h && d.keys[id] == key {
			return id, true
		}
	}
}

// ID returns key's id, assigning one on a miss. A newly assigned id has
// no holder yet: the caller must add it to at least one structure, or
// the id is never released.
func (d *KeyDict) ID(key string) uint32 {
	h := uint32(maphash.String(d.seed, key))
	at, ok := d.find(key, h)
	if ok {
		return at
	}
	if d.n++; 2*d.n > len(d.table) {
		old := d.table
		d.table = make([]uint64, 2*len(old))
		mask := uint32(len(d.table) - 1)
		for _, e := range old {
			if e != 0 {
				i := uint32(e>>32) & mask
				for d.table[i] != 0 {
					i = (i + 1) & mask
				}
				d.table[i] = e
			}
		}
		at, _ = d.find(key, h)
	}
	var id uint32
	if n := len(d.free); n > 0 {
		id, d.free = d.free[n-1], d.free[:n-1]
		d.keys[id], d.tags[id] = key, h
	} else {
		id = uint32(len(d.keys))
		d.keys = append(d.keys, key)
		d.tags = append(d.tags, h)
		d.refs = append(d.refs, 0)
	}
	d.table[at] = uint64(h)<<32 | uint64(id+1)
	return id
}

// lookup returns key's id if it has one.
func (d *KeyDict) lookup(key string) (uint32, bool) {
	return d.find(key, uint32(maphash.String(d.seed, key)))
}

// Len returns the number of keys currently assigned an id.
func (d *KeyDict) Len() int { return d.n }

// release drops one hold on each of ids, freeing those nobody holds.
func (d *KeyDict) release(ids []uint32) {
	for _, id := range ids {
		if d.refs[id]--; d.refs[id] == 0 {
			d.remove(id)
			d.keys[id] = ""
			d.free = append(d.free, id)
			d.n--
		}
	}
}

// remove takes id's slot out of the table and closes the gap: every
// later entry of the run moves back into the hole unless that would put
// it before its home slot.
func (d *KeyDict) remove(id uint32) {
	mask := uint32(len(d.table) - 1)
	hole := d.tags[id] & mask
	for uint32(d.table[hole]) != id+1 {
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; d.table[i] != 0; i = (i + 1) & mask {
		if home := uint32(d.table[i]>>32) & mask; (i-home)&mask >= (i-hole)&mask {
			d.table[hole], hole = d.table[i], i
		}
	}
	d.table[hole] = 0
}

// sorted returns ids ordered by key — the order snapshots and every
// float sum over groups use, so that neither depends on arrival order.
func (d *KeyDict) sorted(ids []uint32) []uint32 {
	out := slices.Clone(ids)
	slices.SortFunc(out, func(a, b uint32) int { return strings.Compare(d.keys[a], d.keys[b]) })
	return out
}
