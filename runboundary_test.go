package spear

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/storage"
)

// byWorker orders results by worker, keeping each worker's results in
// the order the sink received them — the only order a run guarantees.
func byWorker(rs []workerResult) []workerResult {
	out := append([]workerResult(nil), rs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// TestRunBoundaryIsNotSemantic pins that where a hop cuts the stream
// into runs decides nothing: every execution strategy produces, at
// BatchSize 7, 64 and 1000, exactly the per-worker result sequence of
// its BatchSize(1) run — values AND Mode, bit for bit. 7 leaves a
// ragged run before every watermark, 1000 is longer than any window of
// the input.
func TestRunBoundaryIsNotSemantic(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(18, 300, 10)
	val := func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }
	base := func(name string, batch int) *Query {
		return NewQuery(name).
			TumblingWindow(300*time.Second).
			BudgetTuples(96).
			Error(0.10, 0.95).
			Seed(5).
			BatchSize(batch)
	}
	run := func(t *testing.T, q *Query) []workerResult {
		t.Helper()
		sink := &workerSink{}
		if _, err := q.Run(sink.add); err != nil {
			t.Fatal(err)
		}
		return byWorker(sink.res)
	}
	cases := []struct {
		name     string
		holistic bool // the input makes it fire both sampled and exact windows
		run      func(t *testing.T, batch int) []workerResult
	}{
		{"scalar median", true, func(t *testing.T, batch int) []workerResult {
			return run(t, base("rb-median", batch).Source(FromSlice(in)).Median(val))
		}},
		{"incremental mean, sliding, par 3", false, func(t *testing.T, batch int) []workerResult {
			return run(t, base("rb-mean", batch).Source(FromSlice(in)).
				SlidingWindow(300*time.Second, 100*time.Second).Mean(val).Parallelism(3))
		}},
		{"grouped mean, par 2, fields", false, func(t *testing.T, batch int) []workerResult {
			return run(t, base("rb-grouped", batch).Source(FromSlice(in)).
				GroupBy(func(tp Tuple) string { return tp.Vals[1].String() }).Mean(val).
				Parallelism(2))
		}},
		{"columnar, fused, filters", true, func(t *testing.T, batch int) []workerResult {
			return run(t, base("rb-fused", batch).Source(FromSlice(in)).
				Map(func(tp Tuple) (Tuple, bool) { return tp, tp.Vals[0].AsFloat() >= 40 }).
				Map(func(tp Tuple) (Tuple, bool) {
					return NewTuple(tp.Ts, Float(tp.Vals[0].AsFloat()*2), tp.Vals[1]), true
				}).
				Map(func(tp Tuple) (Tuple, bool) { return tp, tp.Vals[1].AsInt() != 3 }).
				Percentile(val, 0.75).Columnar(0))
		}},
		{"checkpoint, crash, recover", true, func(t *testing.T, batch int) []workerResult {
			// Leg 1 dies after 3000 tuples with checkpoints every 1000;
			// leg 2 resumes from the last one that committed.
			store := storage.NewMemStore()
			q := func(src []Tuple) *Query {
				return base("rb-ckpt", batch).Source(FromSlice(src)).Median(val).
					Parallelism(2).SpillStore(store).CheckpointEvery(1000, 0)
			}
			return mergeLegs(run(t, q(in[:3000])), run(t, q(in).Recover()))
		}},
		{"distributed over loopback", true, func(t *testing.T, batch int) []workerResult {
			build := func() *Query {
				return base("rb-dist", batch).Percentile(val, 0.9).Parallelism(4)
			}
			shards := startShards(t, 2, build)
			got := run(t, build().Source(FromSlice(in)).Distribute(shards.addrs...))
			shards.wait(t, false)
			return got
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := c.run(t, 1)
			if m := modes(want); len(want) == 0 || c.holistic && (m["sampled"] == 0 || m["exact"] == 0) {
				t.Fatalf("reference does not exercise both modes: %v", m)
			}
			for _, batch := range []int{7, 64, 1000} {
				t.Run(fmt.Sprintf("batch %d", batch), func(t *testing.T) {
					requireIdentical(t, want, c.run(t, batch))
				})
			}
		})
	}
}
