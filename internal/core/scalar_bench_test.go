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
// slide (two slices a slide). The pane=500 cells are a slide under the
// archive's 512-tuple chunk — what a worker sees at parallelism 2 and
// up — where a pane is never flushed and its buffer comes back only
// through the archive's free list: with 2500 a slide every pane fills
// chunks, and the sweep read 0 allocs/tuple while such panes re-grew a
// buffer each. As in BenchmarkGroupedIngestOverlap the timer runs
// during OnTupleBatch only and starts once the open windows and the
// archive's buffers have reached their steady size, so ns/op is ingest
// ns per tuple and allocs/op ingest allocations per tuple.
//
//	go test ./internal/core -run '^$' -bench ScalarIngestOverlap -benchtime 2000000x
func BenchmarkScalarIngestOverlap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stream := make([]tuple.Tuple, 1<<18)
	for i := range stream {
		stream[i] = tuple.New(0, tuple.Float(5+rng.Float64()*40))
	}
	paths := []struct {
		name string
		f    agg.Func
	}{{"median", agg.Median()}, {"mean", agg.Func{Op: agg.Mean}}}
	cells := []struct {
		overlap  float64
		perSlide int64
	}{{1, 2500}, {3, 2500}, {3.5, 2500}, {8, 2500}, {32, 2500}, {8, 500}}
	for _, p := range paths {
		for _, c := range cells {
			overlap, perSlide := c.overlap, c.perSlide
			name := fmt.Sprintf("%s/overlap=%g", p.name, overlap)
			if perSlide != 2500 {
				name += fmt.Sprintf("/pane=%d", perSlide)
			}
			b.Run(name, func(b *testing.B) {
				m, err := NewScalarManager(Config{
					Spec:    window.Spec{Domain: window.TimeDomain, Range: int64(overlap * float64(perSlide)), Slide: perSlide},
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
				ingest(int(overlap+5) * int(perSlide))
				b.ReportAllocs()
				b.ResetTimer()
				ingest(b.N)
			})
		}
	}
}
