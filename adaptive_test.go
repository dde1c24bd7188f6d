package spear

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spear/internal/core"
	"spear/internal/stats"
	"spear/internal/storage"
)

// TestAdaptiveBudgetIdentity pins the controller's zero-cost-when-idle
// contract at the public API: a query whose controller can never act —
// an SLO far above any reachable lag and any span an edge stays full,
// with AdaptiveBudget pinning Min = Max to the starting budget, so it can
// neither tighten nor shed however saturated its hops — produces exactly the results of
// the same query without LatencySLO: values bit-for-bit AND the
// accelerate/exact Mode decision of every window.
func TestAdaptiveBudgetIdentity(t *testing.T) {
	sec := int64(time.Second)

	t.Run("scalar mixed modes", func(t *testing.T) {
		// Window sizes straddle the budget so the run mixes sampled and
		// exact-fallback decisions; both must survive the controller.
		r := rand.New(rand.NewSource(5))
		var in []Tuple
		for w := 0; w < 8; w++ {
			n := 50
			if w%2 == 1 {
				n = 600
			}
			for i := 0; i < n; i++ {
				in = append(in, NewTuple((int64(w*100)+int64(i)%100)*sec, Float(r.NormFloat64()*50)))
			}
		}
		build := func() *Query {
			return NewQuery("adidentity").
				Source(FromSlice(in)).
				TumblingWindow(100*time.Second).
				Median(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
				BudgetTuples(80).Error(0.10, 0.95).Seed(4)
		}
		plain := collectRun(t, build())
		inert := collectRun(t, build().LatencySLO(time.Hour).AdaptiveBudget(80, 80))
		sameWres(t, plain, inert)
	})

	t.Run("grouped", func(t *testing.T) {
		r := rand.New(rand.NewSource(11))
		groups := []string{"a", "b", "c", "d"}
		var in []Tuple
		for i := 0; i < 6000; i++ {
			in = append(in, NewTuple(int64(i/10)*sec,
				Str(groups[i%len(groups)]), Float(100+r.NormFloat64()*10)))
		}
		build := func() *Query {
			return NewQuery("adgrouped").
				Source(FromSlice(in)).
				TumblingWindow(100*time.Second).
				GroupBy(func(t Tuple) string { return t.Vals[0].AsString() }).
				KnownGroups(len(groups)).
				Mean(func(t Tuple) float64 { return t.Vals[1].AsFloat() }).
				BudgetTuples(120).Error(0.10, 0.95).Seed(6)
		}
		plain := collectRun(t, build())
		inert := collectRun(t, build().LatencySLO(time.Hour).AdaptiveBudget(120, 120))
		sameWres(t, plain, inert)
	})

	t.Run("saturated edge across ticks", func(t *testing.T) {
		// The source outruns a worker whose archive writes each take
		// 10ms, so its edge sits full for well over a second: several of
		// the inert controller's 250ms ticks see it at queueHigh, and none
		// may shed, because the edge has been full for far less than 1h.
		r := rand.New(rand.NewSource(13))
		var in []Tuple
		for i := 0; i < 40_000; i++ {
			mean := 100.0
			if (i/2000)%2 == 1 {
				mean = 0 // relative error defeats the bound: exact fallback
			}
			in = append(in, NewTuple(int64(i/20)*sec, Float(mean+r.NormFloat64()*50)))
		}
		build := func() *Query {
			return NewQuery("adsaturated").
				Source(FromSlice(in)).
				TumblingWindow(100*time.Second).
				Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
				BudgetTuples(64).Error(0.10, 0.95).Seed(8).
				DisableIncremental().Parallelism(1).
				SpillStore(storage.NewLatencyStore(storage.NewMemStore(), 10*time.Millisecond, nil))
		}
		plain := collectRun(t, build())

		ins := NewInstruments()
		var fullest float64
		stop, polled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(polled)
			for {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				for _, e := range ins.Snapshot(time.Now()).Edges {
					fullest = math.Max(fullest, e.Fill)
				}
			}
		}()
		inert := collectRun(t, build().LatencySLO(time.Hour).AdaptiveBudget(64, 64).ObserveWith(ins))
		close(stop)
		<-polled
		sameWres(t, plain, inert)
		ctl := ins.Snapshot(time.Now()).Control
		if fullest < 0.9 || ctl == nil || ctl.Hold < 4 {
			t.Fatalf("edge fill peaked at %.2f over %+v: the leg did not hold a saturated edge across ticks", fullest, ctl)
		}
		if ctl.ShedOn != 0 || ctl.Tighten != 0 {
			t.Fatalf("inert controller acted: %+v", ctl)
		}
	})

	t.Run("crash and recover", func(t *testing.T) {
		// The inert controller must also leave checkpoint recovery
		// untouched: restore rewrites the budget cells, and an idle
		// controller must not disturb the rewound state. Union of the
		// two checkpointed legs == the plain uninterrupted run.
		const n, stopAt = 2000, 1100
		mk := func(lo, hi int) []Tuple {
			var ts []Tuple
			for i := lo; i < hi; i++ {
				ts = append(ts, NewTuple(int64(i)*sec, Float(float64(i%50))))
			}
			return ts
		}
		build := func(src Source, store storage.SpillStore) *Query {
			return NewQuery("adckpt").
				Source(src).
				TumblingWindow(100*time.Second).
				Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
				BudgetTuples(64).Error(0.05, 0.95).Seed(7).
				SpillStore(store)
		}
		ref := &sinkBuf{}
		if _, err := build(FromSlice(mk(0, n)), storage.NewMemStore()).Run(ref.add); err != nil {
			t.Fatal(err)
		}

		store := storage.NewMemStore()
		leg1 := &sinkBuf{}
		if _, err := build(FromSlice(mk(0, stopAt)), store).
			LatencySLO(time.Hour).AdaptiveBudget(64, 64).
			CheckpointEvery(400, 0).
			Run(leg1.add); err != nil {
			t.Fatal(err)
		}
		leg2 := &sinkBuf{}
		if _, err := build(FromSlice(mk(0, n)), store).
			LatencySLO(time.Hour).AdaptiveBudget(64, 64).
			CheckpointEvery(400, 0).
			Recover().
			Run(leg2.add); err != nil {
			t.Fatal(err)
		}

		merged := map[int64]Result{}
		for _, r := range append(leg1.sorted(), leg2.sorted()...) {
			if prev, ok := merged[r.Start]; ok {
				if math.Float64bits(prev.Scalar) != math.Float64bits(r.Scalar) || prev.Mode != r.Mode {
					t.Fatalf("window @%d: legs disagree (%v/%v vs %v/%v)",
						r.Start, prev.Scalar, prev.Mode, r.Scalar, r.Mode)
				}
				continue
			}
			merged[r.Start] = r
		}
		refRes := ref.sorted()
		if len(merged) != len(refRes) {
			t.Fatalf("union has %d windows, reference %d", len(merged), len(refRes))
		}
		for _, want := range refRes {
			got, ok := merged[want.Start]
			if !ok {
				t.Fatalf("window @%d missing from checkpointed union", want.Start)
			}
			if math.Float64bits(got.Scalar) != math.Float64bits(want.Scalar) || got.Mode != want.Mode {
				t.Fatalf("window @%d: %v/%v, want %v/%v",
					want.Start, got.Scalar, got.Mode, want.Scalar, want.Mode)
			}
		}
	})
}

// pacedSource emits the slice with a real-time delay every `every`
// tuples, stretching the run across the controller's ticks so it
// actually observes it.
func pacedSource(in []Tuple, every int, d time.Duration) Source {
	i := 0
	return FromFunc(func() (Tuple, bool) {
		if i >= len(in) {
			return Tuple{}, false
		}
		if every > 0 && i%every == 0 {
			time.Sleep(d)
		}
		t := in[i]
		i++
		return t, true
	})
}

// TestAdaptiveShedReportsContract drives the controller into load
// shedding (an unreachable SLO with the budget pinned at the floor, so
// the first decision escalates straight to shedding) on a stream whose
// variance defeats the bound at budget b. Without shedding every such
// window falls back to the exact archive; with shedding engaged the
// tainted windows must come back as ModeShed — the sample answer with
// the realized bound reported and ContractMet() false — and the
// reported bound must cover the realized error against an exact
// reference. The sample content is seed-deterministic (shedding only
// skips archive writes), so coverage is checked per shed window.
func TestAdaptiveShedReportsContract(t *testing.T) {
	sec := int64(time.Second)
	r := rand.New(rand.NewSource(3))
	const perWin, wins = 3000, 3
	var in []Tuple
	exact := make([]float64, wins)
	for w := 0; w < wins; w++ {
		var sum float64
		for i := 0; i < perWin; i++ {
			v := math.Abs(r.NormFloat64()) * 1e6 * r.Float64()
			sum += v
			in = append(in, NewTuple((int64(w*100)+int64(i*100/perWin))*sec, Float(v)))
		}
		exact[w] = sum / perWin
	}

	ins := NewInstruments()
	var mu sync.Mutex
	var out []Result
	_, err := NewQuery("adshed").
		Source(pacedSource(in, 10, time.Millisecond)).
		TumblingWindow(100*time.Second).
		Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		BudgetTuples(64).Error(0.10, 0.95).Seed(9).
		DisableIncremental().
		LatencySLO(time.Millisecond).AdaptiveBudget(64, 64).
		ObserveWith(ins).
		Run(func(_ int, res Result) {
			mu.Lock()
			out = append(out, res)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != wins {
		t.Fatalf("%d windows, want %d", len(out), wins)
	}

	var sheds int
	for _, res := range out {
		w := int(res.Start / (100 * sec))
		if res.Budget != 64 || res.Epsilon != 0.10 || res.Confidence != 0.95 {
			t.Fatalf("window %d: contract fields (ε=%v δ=%v b=%d) not carried",
				w, res.Epsilon, res.Confidence, res.Budget)
		}
		switch res.Mode {
		case core.ModeShed:
			sheds++
			if res.ContractMet() {
				t.Fatalf("window %d: ModeShed with ContractMet() true", w)
			}
			if !(res.EstError > 0.10) {
				t.Fatalf("window %d: shed EstError %v not above ε", w, res.EstError)
			}
			if res.FetchedFromStore {
				t.Fatalf("window %d: shed window touched S", w)
			}
			if rel := stats.RelativeError(res.Scalar, exact[w]); rel > res.EstError*1.2 {
				t.Fatalf("window %d: realized error %.3f outside the reported bound %.3f",
					w, rel, res.EstError)
			}
		case core.ModeExact:
			// Produced before shedding engaged: the archive fallback.
			if !res.ContractMet() {
				t.Fatalf("window %d: exact result with ContractMet() false", w)
			}
			if rel := stats.RelativeError(res.Scalar, exact[w]); rel > 1e-9 {
				t.Fatalf("window %d: exact mode but error %.6f", w, rel)
			}
		default:
			t.Fatalf("window %d: unexpected mode %v", w, res.Mode)
		}
	}
	if sheds == 0 {
		t.Fatal("controller never shed: no window surfaced the degraded contract")
	}
	var tuplesShed, windowsShed int64
	for _, w := range ins.Snapshot(time.Now()).WorkerMetrics {
		tuplesShed += w.TuplesShed
		windowsShed += w.WindowsShed
	}
	if tuplesShed == 0 || windowsShed == 0 {
		t.Fatalf("shed telemetry: tuples=%d windows=%d, want both positive", tuplesShed, windowsShed)
	}
}

// TestAdaptiveShedHasNothingToShedOnIncremental drives the controller
// into shedding exactly as TestAdaptiveShedReportsContract does, on the
// same query left on its incremental path. Such a query archives
// nothing, so there is no write to shed: the controller's flag is
// refused at the manager, no tuple is booked as shed, and every window
// is the exact incremental answer.
func TestAdaptiveShedHasNothingToShedOnIncremental(t *testing.T) {
	sec := int64(time.Second)
	const perWin, wins = 3000, 3
	var in []Tuple
	for i := 0; i < perWin*wins; i++ {
		in = append(in, NewTuple(int64(i*100/perWin)*sec, Float(float64(i%97))))
	}
	ins := NewInstruments()
	var mu sync.Mutex
	var out []Result
	_, err := NewQuery("adshedinc").
		Source(pacedSource(in, 10, time.Millisecond)).
		TumblingWindow(100*time.Second).
		Mean(func(t Tuple) float64 { return t.Vals[0].AsFloat() }).
		BudgetTuples(64).Error(0.10, 0.95).Seed(9).
		LatencySLO(time.Millisecond).AdaptiveBudget(64, 64).
		ObserveWith(ins).
		Run(func(_ int, res Result) {
			mu.Lock()
			out = append(out, res)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != wins {
		t.Fatalf("%d windows, want %d", len(out), wins)
	}
	for _, res := range out {
		if res.Mode != core.ModeIncremental || res.N != perWin {
			t.Errorf("window @%d: mode %v over %d tuples, want incremental over %d", res.Start, res.Mode, res.N, perWin)
		}
	}
	snap := ins.Snapshot(time.Now())
	if snap.Control == nil || snap.Control.ShedOn == 0 {
		t.Fatal("controller never escalated to shedding: the test did not exercise the refusal")
	}
	for _, w := range snap.WorkerMetrics {
		if w.TuplesShed != 0 || w.WindowsShed != 0 {
			t.Errorf("%s: %d tuples and %d windows booked as shed with no archive write to skip", w.Name, w.TuplesShed, w.WindowsShed)
		}
	}
}
