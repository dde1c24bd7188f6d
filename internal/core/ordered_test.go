package core

import (
	"math"
	"slices"
	"testing"
)

// at returns the value of key k, listing a zero value where k is
// missing (added), as the per-tuple references open windows.
func (o *ordered[K, V]) at(k K) (v *V, added bool) {
	n := len(o.keys)
	return &o.fill(k, k, nil)[0], len(o.keys) > n
}

// get returns the value of key k, the zero value where k is not listed.
func (o *ordered[K, V]) get(k K) (v V) {
	if p := o.find(k); p != nil {
		v = *p
	}
	return v
}

// TestOrderedList drives the index through what its three users ask of
// it: arrivals from the end, a run's windows filled, a fire's key range,
// a retirement or eviction of a prefix, and a snapshot's ascending walk.
// Each entry's value is its key times ten, set where at or fill added it.
func TestOrderedList(t *testing.T) {
	for _, c := range []struct {
		name   string
		at     []int64    // keys arriving, in order
		fill   [][2]int64 // key ranges filled after the arrivals
		drop   int64      // dropBefore after the arrivals
		lo, hi int64      // the span read after the drop
		span   []int64
		all    []int64
	}{
		{"an insert behind the newest, inside the lag", []int64{10, 11, 13, 12, 11, 13}, nil, math.MinInt64,
			11, 13, []int64{11, 12}, []int64{10, 11, 12, 13}},
		{"a run's windows filled around and past the listed ones", []int64{10, 13}, [][2]int64{{11, 14}, {12, 12}, {9, 8}}, math.MinInt64,
			10, 15, []int64{10, 11, 12, 13, 14}, []int64{10, 11, 12, 13, 14}},
		{"a prefix drop across a gap in the stream", []int64{1, 2, 3, 40, 41}, nil, 30,
			math.MinInt64, math.MaxInt64, []int64{40, 41}, []int64{40, 41}},
		{"the key range a fire reads", []int64{5, 6, 7, 8, 9}, nil, 6,
			6, 9, []int64{6, 7, 8}, []int64{6, 7, 8, 9}},
		{"a range over a gap reads nothing", []int64{1, 2, 9}, nil, math.MinInt64,
			3, 9, nil, []int64{1, 2, 9}},
		{"the ascending walk", []int64{7, 3, 9, 1, 5, 3}, nil, 2,
			math.MinInt64, math.MaxInt64, []int64{3, 5, 7, 9}, []int64{3, 5, 7, 9}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var o ordered[int64, int64]
			seen := map[int64]bool{}
			for _, k := range c.at {
				v, added := o.at(k)
				if added == seen[k] {
					t.Fatalf("at(%d) added %v, listed before %v", k, added, seen[k])
				}
				if added {
					*v = 10 * k
				}
				seen[k] = true
			}
			for _, r := range c.fill {
				vals := o.fill(r[0], r[1], func(k int64) int64 {
					if seen[k] {
						t.Errorf("fill opened %d, listed before", k)
					}
					seen[k] = true
					return 10 * k
				})
				if keys, _ := o.span(r[0], r[1]+1); len(vals) != len(keys) || len(keys) != int(max(r[1]-r[0]+1, 0)) {
					t.Errorf("fill [%d, %d] returned %d values over %v", r[0], r[1], len(vals), keys)
				}
				for i, v := range vals {
					if v != 10*(r[0]+int64(i)) {
						t.Errorf("fill [%d, %d]: value %d is %d", r[0], r[1], i, v)
					}
				}
			}
			// A fire closes windows while it walks the ids held returned.
			held, _ := o.span(math.MinInt64, math.MaxInt64)
			before := slices.Clone(held)
			o.dropBefore(c.drop)
			if !slices.Equal(held, before) {
				t.Errorf("the drop moved the entries of a span taken before it: %v, was %v", held, before)
			}
			keys, vals := o.span(c.lo, c.hi)
			if !slices.Equal(keys, c.span) {
				t.Errorf("span [%d, %d) = %v, want %v", c.lo, c.hi, keys, c.span)
			}
			for i, k := range keys {
				if vals[i] != 10*k {
					t.Errorf("span: key %d holds %d", k, vals[i])
				}
				if p := o.find(k); p == nil || *p != 10*k {
					t.Errorf("find(%d) = %v", k, p)
				}
			}
			keys, vals = o.keys, o.vals
			if !slices.Equal(keys, c.all) || len(vals) != len(keys) {
				t.Errorf("keys = %v with %d values, want %v", keys, len(vals), c.all)
			}
			for i, k := range keys {
				if vals[i] != 10*k {
					t.Errorf("all: key %d holds %d", k, vals[i])
				}
			}
			// A snapshot table is read by push: ascending only.
			last := keys[len(keys)-1]
			if o.push(last, 0) || o.push(last-1, 0) || !o.push(last+1, 10*(last+1)) || o.find(last+1) == nil {
				t.Error("push took a key out of order, or refused the next one")
			}
		})
	}
}

// reverse lists o's entries in descending key order, as no writer does.
func (o *ordered[K, V]) reverse() {
	slices.Reverse(o.keys)
	slices.Reverse(o.vals)
}
