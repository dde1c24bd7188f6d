package spe

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"testing"

	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/leakcheck"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

func TestShufflePartitioner(t *testing.T) {
	s := NewShuffle()
	counts := make([]int, 4)
	for i := 0; i < 100; i++ {
		counts[s.Route(tuple.Tuple{}, 4)]++
	}
	for i, c := range counts {
		if c != 25 {
			t.Errorf("worker %d got %d, want 25", i, c)
		}
	}
}

func TestFieldsPartitioner(t *testing.T) {
	seed := maphash.MakeSeed()
	f := NewFields(tuple.FieldString(0), seed)
	g := NewFields(tuple.FieldString(0), seed)
	for i := 0; i < 50; i++ {
		tp := tuple.New(0, tuple.String_(fmt.Sprintf("k%d", i)))
		a := f.Route(tp, 7)
		b := g.Route(tp, 7)
		if a != b {
			t.Fatal("same key routed differently across senders with shared seed")
		}
		if a < 0 || a >= 7 {
			t.Fatalf("route %d out of range", a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("nil key extractor accepted")
		}
	}()
	NewFields(nil, seed)
}

func TestSliceSpout(t *testing.T) {
	s := NewSliceSpout([]tuple.Tuple{tuple.New(1), tuple.New(2)})
	a, ok := s.Next()
	if !ok || a.Ts != 1 {
		t.Fatal("first tuple wrong")
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Error("spout should be exhausted")
	}
}

func TestFuncSpout(t *testing.T) {
	n := 0
	s := FuncSpout(func() (tuple.Tuple, bool) {
		if n >= 3 {
			return tuple.Tuple{}, false
		}
		n++
		return tuple.New(int64(n)), true
	})
	count := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		count++
	}
	if count != 3 {
		t.Errorf("FuncSpout yielded %d", count)
	}
}

func TestDisorderSpout(t *testing.T) {
	in := make([]tuple.Tuple, 100)
	for i := range in {
		in[i] = tuple.New(int64(i))
	}
	d := NewDisorderSpout(NewSliceSpout(in), 5, 1)
	var got []int64
	for {
		tp, ok := d.Next()
		if !ok {
			break
		}
		got = append(got, tp.Ts)
	}
	if len(got) != 100 {
		t.Fatalf("yielded %d tuples", len(got))
	}
	// All tuples present.
	sorted := append([]int64(nil), got...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	disordered := false
	for i, v := range sorted {
		if v != int64(i) {
			t.Fatalf("tuple %d missing/duplicated", i)
		}
	}
	// Bounded horizon: displacement < 5+len(buffer refill slack).
	for i, v := range got {
		if d := math.Abs(float64(v) - float64(i)); d >= 10 {
			t.Errorf("tuple ts=%d displaced by %v", v, d)
		}
		if v != int64(i) {
			disordered = true
		}
	}
	if !disordered {
		t.Error("DisorderSpout produced perfectly ordered output")
	}
	defer func() {
		if recover() == nil {
			t.Error("horizon 0 accepted")
		}
	}()
	NewDisorderSpout(NewSliceSpout(nil), 0, 1)
}

// collectSink gathers results thread-safely.
type collectSink struct {
	mu  sync.Mutex
	res []core.Result
	wrk []int
}

func (c *collectSink) sink(worker int, r core.Result) {
	c.mu.Lock()
	c.res = append(c.res, r)
	c.wrk = append(c.wrk, worker)
	c.mu.Unlock()
}

func scalarFactory(f agg.Func, spec window.Spec, budget int) ManagerFactory {
	return func(wi int) (core.Manager, error) {
		return core.NewScalarManager(core.Config{
			Spec: spec, Agg: f,
			Value:   tuple.FieldFloat(0),
			Epsilon: 0.10, Confidence: 0.95,
			BudgetTuples: budget,
			Store:        storage.NewMemStore(),
			Key:          fmt.Sprintf("w%d", wi),
			Seed:         int64(wi) + 1,
		})
	}
}

func TestTopologyValidation(t *testing.T) {
	spec := window.Tumbling(100)
	mk := func(mut func(*Topology)) error {
		tp := NewTopology(Config{WatermarkPeriod: 100}).
			SetSpout(NewSliceSpout(nil)).
			SetWindowed("agg", 1, nil, scalarFactory(agg.Func{Op: agg.Mean}, spec, 10)).
			SetSink(func(int, core.Result) {})
		mut(tp)
		return tp.Run()
	}
	if err := mk(func(tp *Topology) { tp.spout = nil }); err == nil {
		t.Error("no spout accepted")
	}
	if err := mk(func(tp *Topology) { tp.windowed.factory = nil }); err == nil {
		t.Error("no windowed stage accepted")
	}
	if err := mk(func(tp *Topology) { tp.windowed.par = 0 }); err == nil {
		t.Error("zero parallelism accepted")
	}
	if err := mk(func(tp *Topology) { tp.sink = nil }); err == nil {
		t.Error("no sink accepted")
	}
	if err := mk(func(tp *Topology) { tp.AddMap("m", 0, nil) }); err == nil {
		t.Error("bad stage accepted")
	}
	if err := mk(func(*Topology) {}); err != nil {
		t.Errorf("valid empty-stream topology failed: %v", err)
	}
}

func TestEndToEndScalarMean(t *testing.T) {
	leakcheck.Check(t)
	// 10 tumbling windows of 100 ticks, one tuple per tick, value =
	// window index. Single worker → window means are exact.
	var in []tuple.Tuple
	for w := 0; w < 10; w++ {
		for i := 0; i < 100; i++ {
			in = append(in, tuple.New(int64(w*100+i), tuple.Float(float64(w))))
		}
	}
	sink := &collectSink{}
	tp := NewTopology(Config{WatermarkPeriod: 100}).
		SetSpout(NewSliceSpout(in)).
		SetWindowed("mean", 1, nil, scalarFactory(agg.Func{Op: agg.Mean}, window.Tumbling(100), 50)).
		SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	// The closing watermark (maxTs+1 = 1000) completes all 10 windows.
	if len(sink.res) != 10 {
		t.Fatalf("got %d results, want 10", len(sink.res))
	}
	sort.Slice(sink.res, func(i, j int) bool { return sink.res[i].Start < sink.res[j].Start })
	for i, r := range sink.res {
		if r.Scalar != float64(i) {
			t.Errorf("window %d mean = %v, want %d", i, r.Scalar, i)
		}
		if r.N != 100 {
			t.Errorf("window %d N = %d", i, r.N)
		}
	}
}

func TestEndToEndWithStatelessStage(t *testing.T) {
	leakcheck.Check(t)
	var in []tuple.Tuple
	for i := 0; i < 500; i++ {
		in = append(in, tuple.New(int64(i), tuple.Float(float64(i%2)), tuple.Int(int64(i))))
	}
	sink := &collectSink{}
	doubled := func(t tuple.Tuple) (tuple.Tuple, bool) {
		return tuple.New(t.Ts, tuple.Float(t.Vals[0].AsFloat()*2)), true
	}
	onlyEven := func(t tuple.Tuple) (tuple.Tuple, bool) {
		return t, t.Vals[0].AsFloat() == 0
	}
	tp := NewTopology(Config{WatermarkPeriod: 100}).
		SetSpout(NewSliceSpout(in)).
		AddMap("filter", 0, onlyEven).
		AddMap("double", 0, doubled).
		SetWindowed("sum", 1, nil, scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)).
		SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	// Filter keeps even-indexed (value 0) tuples → sums are 0; mostly
	// checking plumbing across two chained stages.
	if len(sink.res) != 5 {
		t.Fatalf("got %d results, want 5", len(sink.res))
	}
	for _, r := range sink.res {
		if r.Scalar != 0 || r.N != 50 {
			t.Errorf("window [%d,%d): sum=%v N=%d", r.Start, r.End, r.Scalar, r.N)
		}
	}
}

func TestEndToEndGroupedFieldsPartitioning(t *testing.T) {
	leakcheck.Check(t)
	// Grouped mean over 4 workers: fields partitioning must send each
	// group to exactly one worker, so merging per-group results across
	// workers reconstructs the exact answer.
	var in []tuple.Tuple
	truth := map[string]float64{}
	counts := map[string]float64{}
	for i := 0; i < 4000; i++ {
		g := fmt.Sprintf("g%d", i%16)
		v := float64(i % 7)
		truth[g] += v
		counts[g]++
		in = append(in, tuple.New(int64(i%100), tuple.String_(g), tuple.Float(v)))
	}
	sink := &collectSink{}
	keyBy := tuple.FieldString(0)
	factory := func(wi int) (core.Manager, error) {
		return core.NewGroupedManager(core.Config{
			Spec: window.Tumbling(100), Agg: agg.Func{Op: agg.Mean},
			KeyBy: keyBy, Value: tuple.FieldFloat(1),
			Epsilon: 0.10, Confidence: 0.95,
			BudgetTuples: 2000,
			Store:        storage.NewMemStore(),
			Key:          fmt.Sprintf("w%d", wi),
			Seed:         int64(wi) + 1,
		})
	}
	tp := NewTopology(Config{WatermarkPeriod: 100}).
		SetSpout(NewSliceSpout(in)).
		SetWindowed("avg-by-group", 4, keyBy, factory).
		SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	merged := map[string]float64{}
	seen := map[string]int{}
	for _, r := range sink.res {
		for g, v := range r.Groups {
			merged[g] = v
			seen[g]++
		}
	}
	if len(merged) != 16 {
		t.Fatalf("merged %d groups, want 16", len(merged))
	}
	for g, n := range seen {
		if n != 1 {
			t.Errorf("group %s appeared at %d workers; fields partitioning broken", g, n)
		}
	}
	for g, v := range merged {
		exact := truth[g] / counts[g]
		if rel := math.Abs(v-exact) / math.Max(exact, 1e-9); rel > 0.10 {
			t.Errorf("group %s: %v vs %v", g, v, exact)
		}
	}
}

func TestEndToEndCountWindows(t *testing.T) {
	leakcheck.Check(t)
	var in []tuple.Tuple
	for i := 0; i < 1000; i++ {
		in = append(in, tuple.New(int64(i*3), tuple.Float(1)))
	}
	sink := &collectSink{}
	spec := window.CountSliding(100, 100)
	tp := NewTopology(Config{}). // no watermarks in count domain
					SetSpout(NewSliceSpout(in)).
					SetWindowed("sum", 1, nil, scalarFactory(agg.Func{Op: agg.Sum}, spec, 10)).
					SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.res) != 10 {
		t.Fatalf("got %d count windows, want 10", len(sink.res))
	}
	for _, r := range sink.res {
		if r.Scalar != 100 {
			t.Errorf("count window sum = %v", r.Scalar)
		}
	}
}

func TestEndToEndOutOfOrderWithLag(t *testing.T) {
	leakcheck.Check(t)
	var in []tuple.Tuple
	for i := 0; i < 2000; i++ {
		in = append(in, tuple.New(int64(i), tuple.Float(1)))
	}
	sink := &collectSink{}
	tp := NewTopology(Config{WatermarkPeriod: 100, WatermarkLag: 50}).
		SetSpout(NewDisorderSpout(NewSliceSpout(in), 20, 7)).
		SetWindowed("sum", 1, nil, scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)).
		SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	// With lag 50 ≥ horizon displacement, no tuples are late: every
	// fired window must have the exact sum of 100.
	if len(sink.res) < 15 {
		t.Fatalf("only %d windows fired", len(sink.res))
	}
	for _, r := range sink.res {
		if r.Scalar != 100 {
			t.Errorf("window [%d,%d) sum = %v, want 100 (lost tuples under disorder)",
				r.Start, r.End, r.Scalar)
		}
	}
}

func TestEndToEndMultipleScalarWorkers(t *testing.T) {
	leakcheck.Check(t)
	// Shuffle partitioning: each of 4 workers sees ~N/4 tuples per
	// window and produces its own (partial) window result — the
	// paper's data-parallel scalar setup (Fig. 6).
	var in []tuple.Tuple
	for i := 0; i < 8000; i++ {
		in = append(in, tuple.New(int64(i%100), tuple.Float(5)))
	}
	sink := &collectSink{}
	tp := NewTopology(Config{WatermarkPeriod: 100}).
		SetSpout(NewSliceSpout(in)).
		SetWindowed("mean", 4, nil, scalarFactory(agg.Func{Op: agg.Mean}, window.Tumbling(100), 100)).
		SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.res) != 4 {
		t.Fatalf("got %d results, want 4 (one per worker)", len(sink.res))
	}
	var totalN int64
	for _, r := range sink.res {
		if r.Scalar != 5 {
			t.Errorf("worker mean = %v, want 5", r.Scalar)
		}
		totalN += r.N
	}
	if totalN != 8000 {
		t.Errorf("workers saw %d tuples total, want 8000", totalN)
	}
	workers := map[int]bool{}
	for _, w := range sink.wrk {
		workers[w] = true
	}
	if len(workers) != 4 {
		t.Errorf("results came from %d workers", len(workers))
	}
}

func TestRunPropagatesManagerError(t *testing.T) {
	leakcheck.Check(t)
	factoryErr := func(wi int) (core.Manager, error) {
		return nil, fmt.Errorf("boom %d", wi)
	}
	tp := NewTopology(Config{WatermarkPeriod: 10}).
		SetSpout(NewSliceSpout([]tuple.Tuple{tuple.New(1, tuple.Float(1))})).
		SetWindowed("x", 2, nil, factoryErr).
		SetSink(func(int, core.Result) {})
	if err := tp.Run(); err == nil {
		t.Error("factory error not propagated")
	}
}

// erroringManager fails on the nth tuple.
type erroringManager struct {
	n     int
	seen  int
	inner core.Manager
}

func (e *erroringManager) OnTuple(t tuple.Tuple) ([]core.Result, error) {
	e.seen++
	if e.seen >= e.n {
		return nil, fmt.Errorf("injected failure at tuple %d", e.seen)
	}
	return e.inner.OnTuple(t)
}

func (e *erroringManager) OnWatermark(wm int64) ([]core.Result, error) {
	return e.inner.OnWatermark(wm)
}

func TestRunPropagatesRuntimeError(t *testing.T) {
	leakcheck.Check(t)
	var in []tuple.Tuple
	for i := 0; i < 5000; i++ {
		in = append(in, tuple.New(int64(i), tuple.Float(1)))
	}
	inner := scalarFactory(agg.Func{Op: agg.Mean}, window.Tumbling(100), 10)
	factory := func(wi int) (core.Manager, error) {
		m, err := inner(wi)
		if err != nil {
			return nil, err
		}
		return &erroringManager{n: 1000, inner: m}, nil
	}
	tp := NewTopology(Config{WatermarkPeriod: 100}).
		SetSpout(NewSliceSpout(in)).
		SetWindowed("x", 1, nil, factory).
		SetSink(func(int, core.Result) {})
	err := tp.Run()
	if err == nil {
		t.Fatal("runtime error not propagated")
	}
	if got := err.Error(); got == "" || !contains(got, "injected failure") {
		t.Errorf("err = %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestBackpressureTinyQueues(t *testing.T) {
	leakcheck.Check(t)
	// A queue of 1 forces constant blocking; the pipeline must still
	// complete and lose nothing.
	var in []tuple.Tuple
	for i := 0; i < 3000; i++ {
		in = append(in, tuple.New(int64(i%100), tuple.Float(1)))
	}
	sink := &collectSink{}
	tp := NewTopology(Config{WatermarkPeriod: 100})
	tp.queue = 1
	tp.SetSpout(NewSliceSpout(in)).
		AddMap("id", 0, func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true }).
		SetWindowed("sum", 2, nil, scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)).
		SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, r := range sink.res {
		total += r.Scalar
	}
	if total != 3000 {
		t.Errorf("sum across workers = %v, want 3000", total)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	var in []tuple.Tuple
	for i := 0; i < 100000; i++ {
		in = append(in, tuple.New(int64(i), tuple.Float(float64(i&255))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTopology(Config{WatermarkPeriod: 10000}).
			SetSpout(NewSliceSpout(in)).
			SetWindowed("mean", 2, nil, scalarFactory(agg.Func{Op: agg.Mean}, window.Tumbling(10000), 100)).
			SetSink(func(int, core.Result) {})
		if err := tp.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
