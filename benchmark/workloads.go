package main

import (
	"fmt"
	"time"

	"spear"
	"spear/benchmark/layers/probe"
	"spear/benchmark/loadgen"
	"spear/benchmark/span"
)

// The accuracy specification every workload runs under (paper §5).
const (
	epsilon    = 0.10
	confidence = 0.95
)

// workload is one set of inputs plus the query that runs over them.
// satRate and pacedRate are absolute numbers calibrated once on the
// 2-core reference box at the commit that added the benchmark and then
// frozen, so that parent and change always run the same load: the
// saturated phase replays satRate × its seconds tuples (a fixed input
// size, however fast the engine drains it) and the paced phase releases
// pacedRate tuples per second (≈60 % of what two cores sustain).
type workload struct {
	name string
	why  string
	agg  aggKind
	// stages is the stateless chain ahead of the window, as plain
	// functions of the value; stage 0 projects a fresh tuple, the rest
	// rewrite it in place.
	stages []func(float64) (float64, bool)
	// shape sets the window, the aggregate, the budget and the
	// parallelism on a query that already has its source and stages.
	shape      func(q *spear.Query, sh loadgen.Shape) *spear.Query
	par        int
	valueEvery int64
	// The latency of secondary storage S (zero = in-memory).
	storePerOp, storePerKB time.Duration
	// tcp runs the windowed stage on shard servers over loopback TCP.
	tcp bool
	// procs is GOMAXPROCS during the saturated passes: 1 where the
	// pipeline only computes, so that tuples/s is what one core
	// sustains and no thread ever waits for the host to wake another;
	// 2 where it overlaps computing with waiting for storage. Paced
	// passes always have both cores.
	procs     int
	satRate   float64
	pacedRate float64
	// diagnostic workloads run with the others and are checked like
	// them, but BENCHMARK.json does not list them: their timings do not
	// repeat well enough on the reference box to carry a bound.
	diagnostic bool
}

func value(field int) func(spear.Tuple) float64 {
	return func(t spear.Tuple) float64 { return t.Vals[field].AsFloat() }
}

var workloads = []*workload{
	{
		name: "dec_median",
		why:  "paper's headline (Fig. 8b) and single-threaded baseline: core scalar ingest and sampled fire do nearly all the work",
		agg:  aggMedian, par: 1, valueEvery: 1,
		shape: func(q *spear.Query, sh loadgen.Shape) *spear.Query {
			return q.SlidingWindow(time.Duration(sh.Range), time.Duration(sh.Slide)).
				Median(value(sh.ValueField)).BudgetTuples(200).Parallelism(1)
		},
		procs: 1, satRate: 8.5e6, pacedRate: 3.5e6,
	},
	{
		name: "debs_grouped",
		why:  "grouped manager, string keys, ~5K groups per window, keyed routing and out-of-order arrival that must still equal the reference",
		agg:  aggGroupedMean, par: 2, valueEvery: 4,
		shape: func(q *spear.Query, sh loadgen.Shape) *spear.Query {
			return q.SlidingWindow(time.Duration(sh.Range), time.Duration(sh.Slide)).
				WatermarkEvery(time.Duration(sh.Slide), time.Duration(sh.WatermarkLag)).
				GroupBy(func(t spear.Tuple) string { return t.Vals[sh.KeyField].AsString() }).
				Mean(value(sh.ValueField)).
				// 4000 per worker keeps the ≈2.5 K groups a worker sees
				// inside the budget; at 2000 every window goes exact.
				BudgetTuples(4000).Parallelism(2)
		},
		procs: 1, satRate: 1.65e6, pacedRate: 1.2e6,
	},
	{
		name: "etl_columnar",
		why:  "seven fused map/filter stages into an incremental sum: spe fusion and col pivot do the work, core almost none",
		agg:  aggSum, par: 2, valueEvery: 1,
		stages: []func(float64) (float64, bool){
			func(v float64) (float64, bool) { return v + 1, true },         // project
			func(v float64) (float64, bool) { return v * 2, true },         // scale
			func(v float64) (float64, bool) { return v, int64(v)&15 != 0 }, // filter ≈1/8
			func(v float64) (float64, bool) { return min(v, 500), true },   // clamp
			func(v float64) (float64, bool) { return max(v, 8), true },     // floor
			func(v float64) (float64, bool) { return v + 3, true },         // re-bias
			func(v float64) (float64, bool) { return foldTail(v), true },   // fold
		},
		shape: func(q *spear.Query, sh loadgen.Shape) *spear.Query {
			return q.TumblingWindow(time.Duration(sh.Range)).
				Sum(value(sh.ValueField)).BudgetTuples(100).Columnar(sh.ValueField).Parallelism(2)
		},
		procs: 1, satRate: 4.4e6, pacedRate: 2.2e6,
	},
	{
		name: "dec_mean_spill",
		why:  "read side of the archive: most windows fail the check and fetch the whole window from a 50us/op store",
		agg:  aggMean, par: 1, valueEvery: 1,
		shape: func(q *spear.Query, sh loadgen.Shape) *spear.Query {
			return q.SlidingWindow(time.Duration(sh.Range), time.Duration(sh.Slide)).
				Mean(value(sh.ValueField)).DisableIncremental().BudgetTuples(150).
				SpillWorkers(2).SpillAhead(2).Parallelism(1)
		},
		// The "ssd" profile of internal/bench/spill.go.
		storePerOp: 50 * time.Microsecond, storePerKB: 2 * time.Microsecond,
		procs: 2, satRate: 0.9e6, pacedRate: 0.5e6, diagnostic: true,
	},
	{
		name: "dec_mean_tcp",
		why:  "transport (frame codec, syscalls, credit window) is in the path of every tuple: two shard servers on loopback TCP",
		agg:  aggMean, par: 2, valueEvery: 1, tcp: true,
		shape: func(q *spear.Query, sh loadgen.Shape) *spear.Query {
			return q.SlidingWindow(time.Duration(sh.Range), time.Duration(sh.Slide)).
				WatermarkEvery(time.Duration(sh.Slide), time.Duration(sh.WatermarkLag)).
				Mean(value(sh.ValueField)).BudgetTuples(200).Parallelism(2)
		},
		procs: 1, satRate: 1.35e6, pacedRate: 1.2e6,
	},
}

func foldTail(v float64) float64 {
	if v > 256 {
		return v - 256
	}
	return v
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// transform composes the stages into the reference's plain function.
func (w *workload) transform() func(float64) (float64, bool) {
	if len(w.stages) == 0 {
		return nil
	}
	return func(v float64) (float64, bool) {
		ok := true
		for _, st := range w.stages {
			if v, ok = st(v); !ok {
				return 0, false
			}
		}
		return v, true
	}
}

func (w *workload) refSpec(sh loadgen.Shape) refSpec {
	return refSpec{
		rng: sh.Range, slide: sh.Slide, wmLag: sh.WatermarkLag, agg: w.agg,
		valueField: sh.ValueField, keyField: sh.KeyField,
		transform: w.transform(), epsilon: epsilon,
	}
}

// queryEnv is what differs between the runs of one workload.
type queryEnv struct {
	src   spear.Source // nil on a shard server
	seed  int64
	sh    loadgen.Shape
	store *probe.Store
	rec   *span.Recorder     // traced run: wrap the stages
	ins   *spear.Instruments // instrumented run
	addrs []string           // shard servers to distribute over
}

// newQuery builds the workload's query. Source and shard servers must
// build it identically, which is why there is one builder.
func (w *workload) newQuery(env queryEnv) *spear.Query {
	q := spear.NewQuery(w.name)
	if env.src != nil {
		q.Source(env.src)
	}
	for i, st := range w.stages {
		q.Map(mapStage(i, st, env))
	}
	q = w.shape(q, env.sh).
		Error(epsilon, confidence).BatchSize(64).Seed(env.seed).SpillStore(env.store)
	if env.ins != nil {
		q.ObserveWith(env.ins)
	}
	if len(env.addrs) > 0 {
		q.Distribute(env.addrs...)
	}
	return q
}

// mapStage turns stage i's value function into the engine's tuple
// function. Stage 0 builds a fresh tuple (the input block is shared and
// must not be written); later stages own the tuple and rewrite it in
// place. In a traced run every loadgen.TickEvery calls become one span.
func mapStage(i int, st func(float64) (float64, bool), env queryEnv) func(spear.Tuple) (spear.Tuple, bool) {
	fn := func(t spear.Tuple) (spear.Tuple, bool) {
		v, ok := st(t.Vals[0].AsFloat())
		t.Vals[0] = spear.Float(v)
		return t, ok
	}
	if i == 0 {
		fn = func(t spear.Tuple) (spear.Tuple, bool) {
			v, ok := st(t.Vals[0].AsFloat())
			return spear.NewTuple(t.Ts, spear.Float(v)), ok
		}
	}
	if env.rec == nil {
		return fn
	}
	// The span state below is unsynchronized on purpose: the one traced
	// pass of a workload with stages is the fused one, where the source
	// goroutine makes every call. The TCP-flipped pass, which runs the
	// stages at the query's parallelism, is never traced.
	name := fmt.Sprintf("map.%d", i)
	var open span.Open
	var busy time.Duration
	calls := 0
	return func(t spear.Tuple) (spear.Tuple, bool) {
		if calls == 0 {
			open = env.rec.Begin(name, env.store.Parent(), -1)
		}
		t0 := time.Now()
		out, ok := fn(t)
		busy += time.Since(t0)
		if calls++; calls == loadgen.TickEvery {
			open.EndBusy(busy)
			calls, busy = 0, 0
		}
		return out, ok
	}
}
