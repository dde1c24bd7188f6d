package spear

import (
	"fmt"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/storage"
)

// TestChainComposes is the composition matrix for the stateless chain:
// a three-stage chain (rewrite, filter ≈ 1/8, rewrite) ahead of the
// windowed stage, in every combination of {rows, the inert Columnar} ×
// {par 1, par 3} × {scalar over shuffle, GroupBy over fields} × {plain,
// checkpoint + stop + Recover, Distribute, Distribute + checkpoints}.
// Every cell must produce, per worker, exactly the result sequence of
// the plain row run of its (par, routing) — values AND Mode, bit for
// bit. The chain runs in the source goroutine on all of them, so each
// worker has one sender and sees its share of the survivors in source
// order; a survivor's share is decided by the tuple it came from
// (shuffle) or by its key after the chain (fields), never by what the
// filter dropped around it.
func TestChainComposes(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	in := distTuples(18, 300, 10)
	const stopAt = 4000 // leg 1 of a recover cell ends here, checkpoints every 1000
	val := func(tp Tuple) float64 { return tp.Vals[0].AsFloat() }

	build := func(name string, columnar bool, par int, grouped bool) *Query {
		q := NewQuery(name).
			Map(func(tp Tuple) (Tuple, bool) { // rewrite: scale, string the key
				return NewTuple(tp.Ts, Float(tp.Vals[0].AsFloat()*2), Str(fmt.Sprintf("g%d", tp.Vals[1].AsInt()))), true
			}).
			Map(func(tp Tuple) (Tuple, bool) { // filter: about one in eight goes
				return tp, int64(tp.Vals[0].AsFloat())&7 != 0
			}).
			Map(func(tp Tuple) (Tuple, bool) { // rewrite in place: the tuple is the chain's own by now
				tp.Vals[0] = Float(tp.Vals[0].AsFloat() + 0.25)
				return tp, true
			}).
			TumblingWindow(300*time.Second).
			BudgetTuples(96).
			Error(0.10, 0.95).
			Seed(5).
			Parallelism(par)
		if grouped {
			q.GroupBy(func(tp Tuple) string { return tp.Vals[1].AsString() }).Mean(val)
		} else {
			q.Median(val)
		}
		if columnar {
			q.Columnar(0)
		}
		return q
	}
	run := func(t *testing.T, q *Query) []workerResult {
		t.Helper()
		sink := &workerSink{}
		if _, err := q.Run(sink.add); err != nil {
			t.Fatal(err)
		}
		return sink.res
	}
	// distributed runs build() as the source, observed by ins if given, over
	// min(par, 2) loopback shards built from the same definition.
	distributed := func(t *testing.T, build func() *Query, par int, ins *Instruments) []workerResult {
		t.Helper()
		shards := startShards(t, min(par, 2), build)
		q := build().Source(FromSlice(in)).Distribute(shards.addrs...)
		if ins != nil {
			q.ObserveWith(ins)
		}
		got := run(t, q)
		shards.wait(t, false)
		return got
	}

	plans := []struct {
		name string
		run  func(t *testing.T, build func() *Query, par int) []workerResult
	}{
		{"plain", func(t *testing.T, build func() *Query, _ int) []workerResult {
			return mergeLegs(run(t, build().Source(FromSlice(in))))
		}},
		{"checkpoint, stop, recover", func(t *testing.T, build func() *Query, _ int) []workerResult {
			store := storage.NewMemStore()
			leg := func(src []Tuple) *Query {
				return build().Source(FromSlice(src)).SpillStore(store).CheckpointEvery(1000, 0)
			}
			leg1 := run(t, leg(in[:stopAt]))
			leg2 := run(t, leg(in).Recover())
			if len(leg2) >= len(mergeLegs(leg1, leg2)) {
				t.Fatalf("leg 2 emitted %d results; recovery did not skip the prefix", len(leg2))
			}
			return mergeLegs(leg1, leg2)
		}},
		{"distribute", func(t *testing.T, build func() *Query, par int) []workerResult {
			return mergeLegs(distributed(t, build, par, nil))
		}},
		{"distribute, checkpoints", func(t *testing.T, build func() *Query, par int) []workerResult {
			ins := NewInstruments()
			got := distributed(t, func() *Query { return build().CheckpointEvery(1000, 0) }, par, ins)
			if ins.Checkpoint().Completed.Load() < 1 {
				t.Fatal("no checkpoint committed")
			}
			return mergeLegs(got)
		}},
	}

	for _, grouped := range []bool{false, true} {
		for _, par := range []int{1, 3} {
			routing := "scalar, shuffle"
			if grouped {
				routing = "grouped, fields"
			}
			t.Run(fmt.Sprintf("%s/par %d", routing, par), func(t *testing.T) {
				name := fmt.Sprintf("chain-%v-%d", grouped, par)
				want := plans[0].run(t, func() *Query { return build(name, false, par, grouped) }, par)
				if m := modes(want); len(want) == 0 || !grouped && (m["sampled"] == 0 || m["exact"] == 0) {
					t.Fatalf("reference does not exercise both modes: %v", m)
				}
				for _, columnar := range []bool{false, true} {
					for _, mode := range plans {
						if !columnar && mode.name == "plain" {
							continue // the reference itself
						}
						lane := "rows"
						if columnar {
							lane = "columnar"
						}
						t.Run(lane+"/"+mode.name, func(t *testing.T) {
							requireIdentical(t, want, mode.run(t, func() *Query { return build(name, columnar, par, grouped) }, par))
						})
					}
				}
			})
		}
	}
}
