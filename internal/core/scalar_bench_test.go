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

// BenchmarkScalarIngestOverlap measures what a tuple costs the scalar
// manager at arrival as a function of how many windows it falls into,
// on both of its paths: median at b = 200 (a reservoir per window, the
// dec_median shape) and mean (an incremental accumulator per window,
// the dec_mean_tcp shape: an accumulator per slice, so flat in the
// overlap). A slide is 2500 tuples, batches are the engine's 64, the
// archive is live; overlap 3.5 is a range that is not a multiple of the
// slide (two slices a slide). As in BenchmarkGroupedIngestOverlap
// the timer runs during OnTupleBatch only and starts once the open
// windows and the archive's buffers have reached their steady size, so
// ns/op is ingest ns per tuple and allocs/op ingest allocations per
// tuple.
//
//	go test ./internal/core -run '^$' -bench ScalarIngestOverlap -benchtime 2000000x
func BenchmarkScalarIngestOverlap(b *testing.B) {
	const perSlide = 2500
	rng := rand.New(rand.NewSource(1))
	stream := make([]tuple.Tuple, 1<<18)
	for i := range stream {
		stream[i] = tuple.New(0, tuple.Float(5+rng.Float64()*40))
	}
	paths := []struct {
		name string
		f    agg.Func
	}{{"median", agg.Median()}, {"mean", agg.Func{Op: agg.Mean}}}
	for _, p := range paths {
		for _, overlap := range []float64{1, 3, 3.5, 8, 32} {
			b.Run(fmt.Sprintf("%s/overlap=%g", p.name, overlap), func(b *testing.B) {
				m, err := NewScalarManager(Config{
					Spec:    window.Spec{Domain: window.TimeDomain, Range: int64(overlap * perSlide), Slide: perSlide},
					Agg:     p.f,
					Value:   tuple.FieldFloat(0),
					Epsilon: 0.10, Confidence: 0.95, BudgetTuples: 200,
					Store: storage.NewMemStore(), Key: "bench", Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				var batch [64]tuple.Tuple
				tick := int64(0)
				// ingest feeds n tuples, one per tick, firing at every
				// slide boundary with the timer stopped.
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
				ingest(int(overlap+5) * perSlide)
				b.ReportAllocs()
				b.ResetTimer()
				ingest(b.N)
			})
		}
	}
}
