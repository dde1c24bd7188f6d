package core

import (
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/agg"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// BenchmarkGroupedIngestOverlap measures what a tuple costs the grouped
// manager at arrival as a function of how many windows it falls into,
// groups unknown: for a mean, answered from the moments, and for a
// median, whose runs also go to the archive in S. The key mix is the DEBS taxi routes' (the paper's grouped dataset):
// 52 % of tuples over 400 hot routes, 48 % over a universe of 600 K
// most of which a window sees once; a slide is 2500 tuples. The timer
// runs during OnTupleBatch only — fires, and the garbage their result
// maps make, are outside it — and starts after the windows, the pool
// and the dictionary have reached their steady size, so ns/op is ingest
// ns per tuple and allocs/op ingest allocations per tuple.
//
//	go test ./internal/core -run '^$' -bench GroupedIngestOverlap -benchtime 2000000x
func BenchmarkGroupedIngestOverlap(b *testing.B) {
	const perSlide = 2500
	rng := rand.New(rand.NewSource(1))
	hot := make([]tuple.Value, 400)
	for i := range hot {
		hot[i] = tuple.String_(fmt.Sprintf("route-%03d-%03d", i/20, i%20))
	}
	cold := make([]tuple.Value, 600_000)
	for i := range cold {
		cold[i] = tuple.String_(fmt.Sprintf("route-%03d-%03d", 100+i/800, i%800))
	}
	stream := make([]tuple.Tuple, 1<<18)
	for i := range stream {
		key := hot[rng.Intn(len(hot))]
		if rng.Intn(100) >= 52 {
			key = cold[rng.Intn(len(cold))]
		}
		stream[i] = tuple.New(0, tuple.Float(5+rng.Float64()*40), key)
	}
	for _, a := range []struct {
		name string
		f    agg.Func
	}{{"mean", agg.Func{Op: agg.Mean}}, {"median", agg.Median()}} {
		for _, overlap := range []int64{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/overlap=%d", a.name, overlap), func(b *testing.B) {
				benchGroupedIngest(b, a.f, overlap, perSlide, stream)
			})
		}
	}
}

// benchGroupedIngest is one cell of BenchmarkGroupedIngestOverlap.
func benchGroupedIngest(b *testing.B, f agg.Func, overlap, perSlide int64, stream []tuple.Tuple) {
	m, err := NewGroupedManager(Config{
		Spec:    window.Spec{Domain: window.TimeDomain, Range: overlap * perSlide, Slide: perSlide},
		Agg:     f,
		Value:   tuple.FieldFloat(0),
		KeyBy:   tuple.FieldString(1),
		Epsilon: 0.10, Confidence: 0.95, BudgetTuples: 1 << 20,
		Store: storage.NewMemStore(), Key: "bench", Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var batch [64]tuple.Tuple
	tick := int64(0)
	// ingest feeds n tuples, one per tick, firing at every slide
	// boundary with the timer stopped.
	ingest := func(n int) {
		for n > 0 {
			k := min(n, len(batch), int(perSlide-tick%perSlide))
			for i := range batch[:k] {
				batch[i] = stream[(tick+int64(i))&int64(len(stream)-1)]
				batch[i].Ts = tick + int64(i)
			}
			if _, err := m.OnTupleBatch(batch[:k]); err != nil {
				b.Fatal(err)
			}
			tick += int64(k)
			n -= k
			if tick%perSlide == 0 {
				b.StopTimer()
				if _, err := m.OnWatermark(tick); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	}
	ingest(int(overlap+4) * int(perSlide))
	b.ReportAllocs()
	b.ResetTimer()
	ingest(b.N)
}
