package spear

import (
	"math"
	"sync"
	"testing"
	"time"

	"spear/internal/core"
	"spear/internal/storage"
	"spear/internal/window"
)

// resultSet collects results keyed by (worker, window) so two runs of
// the same query can be compared window by window.
type resultKey struct {
	worker int
	id     window.ID
}

type resultSet struct {
	mu  sync.Mutex
	res map[resultKey]Result
}

func newResultSet() *resultSet { return &resultSet{res: map[resultKey]Result{}} }

func (s *resultSet) add(worker int, r Result) {
	s.mu.Lock()
	s.res[resultKey{worker, r.WindowID}] = r
	s.mu.Unlock()
}

// mustMatch requires b to reproduce a exactly: same result set, same
// Mode per window, bit-identical scalar and per-group values. The spill
// plane reorders I/O, never arithmetic, so nothing weaker than
// bit-equality is acceptable.
func (s *resultSet) mustMatch(t *testing.T, label string, b *resultSet) {
	t.Helper()
	if len(s.res) != len(b.res) {
		t.Fatalf("%s: result count %d != sync's %d", label, len(b.res), len(s.res))
	}
	for k, ra := range s.res {
		rb, ok := b.res[k]
		if !ok {
			t.Fatalf("%s: worker %d window %d missing", label, k.worker, k.id)
		}
		if ra.Mode != rb.Mode {
			t.Errorf("%s: worker %d window %d mode %v != sync's %v", label, k.worker, k.id, rb.Mode, ra.Mode)
		}
		if math.Float64bits(ra.Scalar) != math.Float64bits(rb.Scalar) {
			t.Errorf("%s: worker %d window %d scalar %v != sync's %v", label, k.worker, k.id, rb.Scalar, ra.Scalar)
		}
		if len(ra.Groups) != len(rb.Groups) {
			t.Errorf("%s: worker %d window %d group count %d != sync's %d", label, k.worker, k.id, len(rb.Groups), len(ra.Groups))
			continue
		}
		for g, va := range ra.Groups {
			if vb, ok := rb.Groups[g]; !ok || math.Float64bits(va) != math.Float64bits(vb) {
				t.Errorf("%s: worker %d window %d group %q %v != sync's %v", label, k.worker, k.id, g, rb.Groups[g], va)
			}
		}
	}
}

// TestSpillPlaneIdentity runs the same spill-heavy query with the
// synchronous store path and with the async plane (write-behind +
// prefetch), and requires both to produce identical results —
// values and accelerate/exact Mode decisions. The workload is the
// adversarial one for spilling: a sliding-window mean forced down the
// exact path, so every pane round-trips through the spill store.
func TestSpillPlaneIdentity(t *testing.T) {
	const (
		tuples     = 40_000
		slideTicks = 1000
		rangeTicks = 8 * slideTicks
		lagTicks   = 2 * slideTicks
	)
	in := make([]Tuple, tuples)
	vals := make([]Value, tuples)
	for i := range in {
		vals[i] = Float(float64((i*2654435761)&1023) / 8)
		in[i] = Tuple{Ts: int64(i), Vals: vals[i : i+1 : i+1]}
	}

	build := func(name string, store *storage.MemStore, ins *Instruments) *Query {
		q := NewQuery(name).
			Source(FromSlice(in)).
			SlidingWindow(time.Duration(rangeTicks), time.Duration(slideTicks)).
			// Watermark lag separates a pane's archival from its first
			// read, which is what gives the prefetcher something to do.
			WatermarkEvery(time.Duration(slideTicks), time.Duration(lagTicks)).
			Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
			// Tight ε against a tiny budget: the estimate check fails on
			// every window, forcing the exact fallback that reads S.
			Error(0.002, 0.99).
			BudgetTuples(64).
			DisableIncremental().
			Parallelism(1).
			Seed(7).
			SpillStore(store)
		if ins != nil {
			q.ObserveWith(ins)
		}
		return q
	}

	// Sync reference.
	syncStore := storage.NewMemStore()
	syncRes := newResultSet()
	if _, err := build("spill-sync", syncStore, nil).Run(syncRes.add); err != nil {
		t.Fatal(err)
	}
	if syncStore.Stats().Stores == 0 {
		t.Fatal("sync run never hit the spill store; the workload is not exercising spilling")
	}
	if n := len(syncRes.res); n == 0 {
		t.Fatal("sync run produced no results")
	}
	for k, r := range syncRes.res {
		if r.Mode != core.ModeExact {
			t.Fatalf("window %d mode %v; the workload must force the exact fallback", k.id, r.Mode)
		}
	}

	cases := []struct {
		label string
		cfg   func(q *Query) *Query
	}{
		{"async", func(q *Query) *Query { return q.SpillWorkers(4).SpillAhead(2) }},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			store := storage.NewMemStore()
			ins := NewInstruments()
			res := newResultSet()
			if _, err := tc.cfg(build("spill-"+tc.label, store, ins)).Run(res.add); err != nil {
				t.Fatal(err)
			}
			syncRes.mustMatch(t, tc.label, res)

			snap := ins.Snapshot(time.Now())
			sp := snap.SpillPlane
			if sp == nil {
				t.Fatal("no spill-plane telemetry; the async plane never attached")
			}
			if !sp.Async {
				t.Error("plane reports synchronous mode despite SpillWorkers > 0")
			}
			if sp.AsyncWrites == 0 {
				t.Error("plane recorded no async writes; write-behind never engaged")
			}
			if sp.PrefetchIssued == 0 {
				t.Error("plane issued no prefetches; watermark-driven prefetch never engaged")
			}
			if sp.CacheHits == 0 {
				t.Error("chunk cache recorded no hits")
			}
		})
	}
}
