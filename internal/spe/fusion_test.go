package spe

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spear/internal/col"
	"spear/internal/core"
	"spear/internal/leakcheck"
	"spear/internal/tuple"
	"spear/internal/watermark"
)

// chainStages builds a chain of four stages over (value, key) tuples —
// a filter, a map that rewrites the key, a second filter, a map that
// moves the value — each recording its input in rec before it answers.
// The filters keep a tuple or not by a hash of its timestamp and the
// seed alone, so two chains built from one seed decide alike. The maps
// build their output afresh: the input slice is shared between runs.
func chainStages(seed int64, rec *[4][]tuple.Tuple) []MapFunc {
	keep := func(k int) MapFunc {
		return func(t tuple.Tuple) (tuple.Tuple, bool) {
			rec[k] = append(rec[k], t)
			h := uint64(t.Ts)*0x9e3779b97f4a7c15 + uint64(seed)*uint64(k+3)
			return t, (h>>33)%uint64(3+seed%4) != 0
		}
	}
	return []MapFunc{
		keep(0),
		func(t tuple.Tuple) (tuple.Tuple, bool) {
			rec[1] = append(rec[1], t)
			return tuple.New(t.Ts, t.Vals[0], tuple.String_(fmt.Sprintf("%s/%d", t.Vals[1].AsString(), t.Ts%5))), true
		},
		keep(2),
		func(t tuple.Tuple) (tuple.Tuple, bool) {
			rec[3] = append(rec[3], t)
			return tuple.New(t.Ts, tuple.Float(t.Vals[0].AsFloat()+0.5), t.Vals[1]), true
		},
	}
}

// laneRecorder is a manager that writes down what reaches it, in
// order: every tuple by whichever entry point delivered it, every
// watermark, and (through the snapshot hook) every barrier.
type laneRecorder struct{ events []string }

func (m *laneRecorder) tuples(ts []tuple.Tuple) ([]core.Result, error) {
	for _, t := range ts {
		m.events = append(m.events, fmt.Sprintf("t%d %v %s", t.Ts, t.Vals[0].AsFloat(), t.Vals[1].AsString()))
	}
	return nil, nil
}
func (m *laneRecorder) OnTuple(t tuple.Tuple) ([]core.Result, error) {
	return m.tuples([]tuple.Tuple{t})
}
func (m *laneRecorder) OnTupleBatch(ts []tuple.Tuple) ([]core.Result, error) { return m.tuples(ts) }
func (m *laneRecorder) OnColumnBatch(cb *col.ColumnBatch) ([]core.Result, error) {
	return m.tuples(cb.Rows())
}
func (m *laneRecorder) OnWatermark(wm int64) ([]core.Result, error) {
	m.events = append(m.events, fmt.Sprintf("W%d", wm))
	return nil, nil
}

// TestChainIsThePerTupleReference runs recording stages and recording
// workers through the engine and holds what they saw to a plain loop
// that takes one source tuple at a time through the stages: each stage's
// input sequence, every survivor's worker, and where each watermark and
// the barrier fall among a worker's survivors — "no control overtakes a
// survivor", which holds because the chain buffers nothing and the
// batcher flushes every run before a control. The chain has one emit;
// columnar=true runs the same chain into workers that ingest through
// OnColumnBatch.
func TestChainIsThePerTupleReference(t *testing.T) {
	leakcheck.Check(t)
	const n, par, barrierAt, period, lag, fieldsSeed = 3000, 3, 1234, 50, 7, 99
	rng := rand.New(rand.NewSource(8))
	in := make([]tuple.Tuple, n)
	for i := range in {
		in[i] = tuple.New(int64(i)+rng.Int63n(lag), tuple.Float(float64(i%11)), tuple.String_(fmt.Sprintf("k%d", rng.Intn(9))))
	}
	key := tuple.FieldString(1)
	for _, keyed := range []bool{false, true} {
		for _, columnar := range []bool{false, true} {
			for _, batch := range []int{1, 7, 64} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("keyed=%v/columnar=%v/batch%d/seed%d", keyed, columnar, batch, seed)
					t.Run(name, func(t *testing.T) {
						// The reference: one tuple at a time, controls
						// where the spout puts them — the barrier before
						// tuple barrierAt is read, a watermark before the
						// tuple that raised it.
						var wantIn [4][]tuple.Tuple
						want := make([][]string, par)
						all := func(ev string) {
							for w := range want {
								want[w] = append(want[w], ev)
							}
						}
						stages := chainStages(seed, &wantIn)
						gen := watermark.NewGenerator(period, lag)
						fields := NewSeededFields(key, fieldsSeed)
						cur := int64(math.MinInt64)
						for i, tup := range in {
							if i == barrierAt {
								all("B1")
							}
							if wm, emit := gen.Observe(tup.Ts); emit && wm > cur {
								cur = wm
								all(fmt.Sprintf("W%d", wm))
							}
							d, ok := i%par, true
							for _, fn := range stages {
								if tup, ok = fn(tup); !ok {
									break
								}
							}
							if !ok {
								continue
							}
							if keyed {
								d = fields.Route(tup, par)
							}
							want[d] = append(want[d], fmt.Sprintf("t%d %v %s", tup.Ts, tup.Vals[0].AsFloat(), tup.Vals[1].AsString()))
						}
						all(fmt.Sprintf("W%d", int64(math.MaxInt64)))

						var gotIn [4][]tuple.Tuple
						recs := make([]*laneRecorder, par)
						fired := false
						var mu sync.Mutex // Snapshot runs on the workers' goroutines
						hooks := &CheckpointHooks{
							Trigger: func(offset int64) (uint64, bool, error) {
								if !fired && offset >= barrierAt {
									fired = true
									return 1, true, nil
								}
								return 0, false, nil
							},
							Snapshot: func(id uint64, _ int, mgr core.Manager) error {
								mu.Lock()
								defer mu.Unlock()
								r := mgr.(*laneRecorder)
								r.events = append(r.events, fmt.Sprintf("B%d", id))
								return nil
							},
						}
						tp := NewTopology(Config{
							WatermarkPeriod: period, WatermarkLag: lag, BatchSize: batch,
							Columnar: columnar, Checkpoint: hooks, FieldsSeed: fieldsSeed,
						}).SetSpout(NewSliceSpout(in))
						for _, fn := range chainStages(seed, &gotIn) {
							tp.AddMap("stage", 0, fn)
						}
						var keyBy tuple.KeyExtractor
						if keyed {
							keyBy = key
						}
						tp.SetWindowed("rec", par, keyBy, func(wi int) (core.Manager, error) {
							recs[wi] = &laneRecorder{}
							return recs[wi], nil
						}).SetSink(func(int, core.Result) {})
						if err := tp.Run(); err != nil {
							t.Fatal(err)
						}
						same := func(a, b tuple.Tuple) bool {
							return a.Ts == b.Ts && slices.EqualFunc(a.Vals, b.Vals, tuple.Value.Equal)
						}
						for k := range wantIn {
							if !slices.EqualFunc(gotIn[k], wantIn[k], same) {
								t.Errorf("stage %d saw %d tuples, the reference %d, or another order", k, len(gotIn[k]), len(wantIn[k]))
							}
						}
						if len(wantIn[3]) < n/10 || len(wantIn[3]) > 9*n/10 {
							t.Fatalf("%d of %d tuples survive: the filters filter nothing, or everything", len(wantIn[3]), n)
						}
						for w := range want {
							got, want := append(recs[w].events, "<end>"), append(want[w], "<end>")
							for i := range want {
								if i == len(got) || got[i] != want[i] {
									t.Errorf("worker %d: %d events, want %d; event %d is %q, want %q", w, len(got)-1, len(want)-1, i, got[min(i, len(got)-1)], want[i])
									break
								}
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkFusedChain times the chain alone: one op is one source tuple
// pushed through 1, 3 or 7 stages (each drops about one tuple in
// sixteen and allocates nothing) into a run, with a goroutine recycling
// what is shipped. allocs/op is the engine's own, and must read 0.
func BenchmarkFusedChain(b *testing.B) {
	const chunk = 1 << 16
	in := make([]tuple.Tuple, chunk)
	vals := make([]tuple.Value, 2*chunk)
	for i := range in {
		vals[2*i], vals[2*i+1] = tuple.Float(float64(i&255)), tuple.Float(float64(i&15))
		in[i] = tuple.Tuple{Ts: int64(i), Vals: vals[2*i : 2*i+2 : 2*i+2]}
	}
	for _, stages := range []int{1, 3, 7} {
		b.Run(fmt.Sprintf("stages%d", stages), func(b *testing.B) {
			chain := make([]statelessStage, stages)
			for k := range chain {
				drop := int64(16*(k+1) + 1)
				chain[k].fn = func(t tuple.Tuple) (tuple.Tuple, bool) { return t, t.Ts%drop != 0 }
			}
			pool := newRunPool(defaultBatchSize)
			outs := []chan Batch{make(chan Batch, 64)} // a few runs of slack, as a worker's queue has
			done := make(chan struct{})
			go func() {
				defer close(done)
				for batch := range outs[0] {
					pool.recycle(batch)
				}
			}()
			out := newBatcher(outs, NewShuffle(), defaultBatchSize, pool)
			f := newFusedChain(chain, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.push(in[i&(chunk-1)])
			}
			out.flushAll()
			b.StopTimer()
			close(outs[0])
			<-done
		})
	}
}
