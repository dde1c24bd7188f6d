package core

import (
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/agg"
	"spear/internal/window"
)

// fallbackManager returns a scalar median over tumbling windows of n
// ticks whose budget of one tuple fails every accuracy check, so that
// each window is answered by Alg. 2's exact fallback.
func fallbackManager(tb testing.TB, domain window.Domain, n int) *ScalarManager {
	cfg := mkCfg(agg.Median(), 1)
	cfg.Epsilon = 0.01
	cfg.Spec = window.Spec{Domain: domain, Range: int64(n), Slide: int64(n)}
	m, err := NewScalarManager(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestFallbackFireAllocs: a steady fallback fire stages the window it
// fetches in storage reused across fires, so a window four times longer
// allocates no more. Fetching into a slice grown from nil, and reading
// its values into a fresh one, cost allocations that grew with it.
func TestFallbackFireAllocs(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{100, 400} {
		m := fallbackManager(t, window.TimeDomain, n)
		rows := stormRows(rand.New(rand.NewSource(1)), 0, n)
		ts := int64(0)
		round := func() {
			for i := range rows {
				rows[i].Ts = ts + int64(i)
			}
			if _, err := m.OnTupleBatch(rows); err != nil {
				t.Fatal(err)
			}
			ts += int64(n)
			rs, err := m.OnWatermark(ts)
			if err != nil || len(rs) != 1 || rs[0].Mode != ModeExact || rs[0].N != int64(n) {
				t.Fatalf("window of %d: %v (err %v), want one exact window", n, rs, err)
			}
		}
		for i := 0; i < 8; i++ {
			round()
		}
		allocs[n] = testing.AllocsPerRun(50, round)
		if len(m.stage) != 0 || cap(m.stage) == 0 {
			t.Errorf("window of %d: staging of len %d, cap %d after the fire: want it emptied and kept", n, len(m.stage), cap(m.stage))
		}
		for _, tp := range m.stage[:cap(m.stage)] {
			if tp.Vals != nil {
				t.Fatalf("window of %d: the staging pins a tuple past the fire", n)
			}
		}
	}
	t.Logf("allocations a fire: %v", allocs)
	if allocs[400] > allocs[100] {
		t.Errorf("a window of 400 allocates %v a fire, one of 100 %v: want no more", allocs[400], allocs[100])
	}
}

// BenchmarkFallbackFire is BenchmarkStormFire's windows answered by
// SPEAr's exact fallback: a median whose budget fails every check,
// archived to a MemStore and fetched back. One op is one window,
// ingested and fired.
func BenchmarkFallbackFire(b *testing.B) {
	for _, n := range []int{2500, 5000, 10000, 20000, 47000} {
		b.Run(fmt.Sprintf("window=%d", n), func(b *testing.B) {
			m := fallbackManager(b, window.CountDomain, n)
			rows := stormRows(rand.New(rand.NewSource(1)), 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fired := 0
				for j := 0; j < n; j += 64 {
					rs, err := m.OnTupleBatch(rows[j:min(j+64, n)])
					if err != nil {
						b.Fatal(err)
					}
					fired += len(rs)
				}
				if fired != 1 {
					b.Fatalf("%d windows fired, want 1", fired)
				}
			}
		})
	}
}
