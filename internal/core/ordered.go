package core

import "slices"

// ordered is the one index internal/core keeps over a stream: entries
// keys[i] → vals[i], in ascending order of an int64 key — a pane index
// (the archive), a slice's first position (the incremental path) or a
// window id (every manager's open windows). Arrivals land in the newest
// entry or, inside the watermark lag, one a few back, so fill searches
// from the end; a fire reads a key range by binary search; eviction
// drops a prefix; a snapshot walks keys and vals.
type ordered[K ~int64, V any] struct {
	keys []K
	vals []V
}

// push appends an entry whose key is above every listed one, as a
// snapshot table is read: false, and nothing appended, where it is not.
func (o *ordered[K, V]) push(k K, v V) bool {
	if n := len(o.keys); n > 0 && o.keys[n-1] >= k {
		return false
	}
	o.keys, o.vals = append(o.keys, k), append(o.vals, v)
	return true
}

// find returns the value of key k, nil where k is not listed.
func (o *ordered[K, V]) find(k K) *V {
	if _, vals := o.span(k, k+1); len(vals) > 0 {
		return &vals[0]
	}
	return nil
}

// span returns the entries with keys in [lo, hi), ascending.
func (o *ordered[K, V]) span(lo, hi K) ([]K, []V) {
	i, _ := slices.BinarySearch(o.keys, lo)
	j, _ := slices.BinarySearch(o.keys, hi)
	j = max(i, j)
	return o.keys[i:j], o.vals[i:j]
}

// fill returns the values of keys lo through hi, ascending — a pane, a
// slice, or the windows a run falls into — first listing each missing
// key with the value open gives it (a zero value where open is nil). It
// searches from the end, where arrivals land.
func (o *ordered[K, V]) fill(lo, hi K, open func(K) V) []V {
	i := len(o.keys)
	for i > 0 && o.keys[i-1] >= lo {
		i--
	}
	j := i
	for k := lo; k <= hi; k, j = k+1, j+1 {
		if j < len(o.keys) && o.keys[j] == k {
			continue
		}
		var v V
		if open != nil {
			v = open(k)
		}
		o.keys, o.vals = slices.Insert(o.keys, j, k), slices.Insert(o.vals, j, v)
	}
	return o.vals[i:j]
}

// dropBefore drops the entries with keys below k, a prefix, by slicing
// past it: the entries a span returned stay where they are.
func (o *ordered[K, V]) dropBefore(k K) {
	i, _ := slices.BinarySearch(o.keys, k)
	clear(o.vals[:i])
	o.keys, o.vals = o.keys[i:], o.vals[i:]
}
