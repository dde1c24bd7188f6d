package sample

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/stats"
)

// TestKeyDictChurn shares one dictionary between several accumulators —
// windows, in the engine — that fill and reset at different times, and
// holds each against a plain map. The dictionary's own invariants are
// checked from the inside: one id per live key, one table entry per id,
// every entry reachable from its home slot, no id both live and free.
func TestKeyDictChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewKeyDict()
	const holders = 5
	gs := make([]*GroupStats, holders)
	gr := make([]*GroupReservoirs, holders)
	model := make([]map[string]*stats.Welford, holders)
	for i := range gs {
		gs[i], gr[i], model[i] = d.NewGroupStats(), d.NewGroupReservoirs(3, int64(i)), map[string]*stats.Welford{}
	}
	key := func() string {
		if rng.Intn(3) == 0 {
			return fmt.Sprintf("once-%d", rng.Int())
		}
		return fmt.Sprintf("k%d", rng.Intn(300)) // returns after its id was recycled
	}
	for step := 0; step < 60_000; step++ {
		h := rng.Intn(holders)
		if rng.Intn(400) == 0 {
			gs[h].Reset()
			gr[h].Reset()
			model[h] = map[string]*stats.Welford{}
		} else {
			k, v := key(), rng.Float64()
			id := d.ID(k)
			gs[h].AddID(id, v)
			gr[h].AddID(id, v)
			w := model[h][k]
			if w == nil {
				w = &stats.Welford{}
				model[h][k] = w
			}
			w.Add(v)
		}
		if step%500 != 0 {
			continue
		}
		live := map[string]bool{}
		for i, m := range model {
			if gs[i].Len() != len(m) || gr[i].Len() != len(m) {
				t.Fatalf("step %d holder %d: %d groups, %d reservoirs, model %d", step, i, gs[i].Len(), gr[i].Len(), len(m))
			}
			res := map[string]*Reservoir{}
			gr[i].Each(func(k string, r *Reservoir) { res[k] = r })
			for k, w := range m {
				live[k] = true
				got := gs[i].Get(k)
				if got == nil || !bytes.Equal(got.AppendTo(nil), w.AppendTo(nil)) {
					t.Fatalf("step %d holder %d: group %q differs from the model", step, i, k)
				}
				if r := res[k]; r == nil || r.Seen() != w.Count() {
					t.Fatalf("step %d holder %d: reservoir %q differs from the model", step, i, k)
				}
			}
			if gs[i].Get("never-added") != nil {
				t.Fatalf("step %d: Get of an unknown key", step)
			}
		}
		checkDict(t, d, live)
	}
	for i := range gs {
		gs[i].Reset()
		gr[i].Reset()
	}
	checkDict(t, d, nil)
}

func checkDict(t *testing.T, d *KeyDict, live map[string]bool) {
	t.Helper()
	if d.Len() != len(live) {
		t.Fatalf("dictionary holds %d keys, the holders %d", d.Len(), len(live))
	}
	seen := map[uint32]bool{}
	for k := range live {
		id, ok := d.lookup(k)
		if !ok || d.keys[id] != k || d.refs[id] <= 0 || seen[id] {
			t.Fatalf("key %q: id %d, found=%v, keys[id]=%q, refs=%d, shared=%v", k, id, ok, d.keys[id], d.refs[id], seen[id])
		}
		seen[id] = true
	}
	entries := 0
	for _, e := range d.table {
		if e != 0 {
			entries++
		}
	}
	if entries != len(live) {
		t.Fatalf("%d table entries for %d keys", entries, len(live))
	}
	for _, id := range d.free {
		if seen[id] || d.refs[id] != 0 || d.keys[id] != "" {
			t.Fatalf("free id %d is in use (refs %d, key %q)", id, d.refs[id], d.keys[id])
		}
	}
	if len(d.free)+len(live) != len(d.keys) {
		t.Fatalf("%d free + %d live ids of %d", len(d.free), len(live), len(d.keys))
	}
}
