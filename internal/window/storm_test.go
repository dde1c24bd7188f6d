package window_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

// The single-buffer design of Figs. 3–4 (Storm) is the exact baseline's
// shape, core.ExactManager: every admitted tuple stored once in one
// arrival-ordered buffer, a scan per window at the trigger, an eviction
// pass after it. These tests drive it through its results and its
// telemetry, and hold it to window.MultiBuffer, the Flink design kept as
// its reference. The package is window_test because core imports window.

// storm returns the Storm manager for spec, summing field 0, and its
// telemetry.
func storm(t testing.TB, spec window.Spec) (*core.ExactManager, *obs.Worker) {
	t.Helper()
	met := &obs.Worker{}
	m, err := core.NewExactManager(core.Config{
		Spec: spec, Agg: agg.Func{Op: agg.Sum}, Value: tuple.FieldFloat(0),
		Epsilon: 0.1, Confidence: 0.95, BudgetTuples: 1, Store: storage.NewMemStore(), Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, met
}

func row(ts int64, v float64) tuple.Tuple { return tuple.New(ts, tuple.Float(v)) }

// rowBytes is what a row of one float holds against the memory gauge.
var rowBytes = int64(row(0, 0).MemSize())

// feedRuns hands m rows in runs of size (the last one shorter) and
// returns the windows they fire, in order.
func feedRuns(t testing.TB, m core.Manager, rows []tuple.Tuple, size int) []core.Result {
	t.Helper()
	var out []core.Result
	for i := 0; i < len(rows); i += size {
		rs, err := m.OnTupleBatch(rows[i:min(i+size, len(rows))])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs...)
	}
	return out
}

func watermark(t testing.TB, m core.Manager, wm int64) []core.Result {
	t.Helper()
	rs, err := m.OnWatermark(wm)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// sameWindow reports whether r answers the window c staged: the same
// window, as many tuples, and the sum of the same values in the same
// order, bit for bit (floating-point addition is not associative).
func sameWindow(r core.Result, c window.Complete) bool {
	vals := make([]float64, len(c.Tuples))
	for i, tp := range c.Tuples {
		vals[i] = tp.Vals[0].AsFloat()
	}
	return r.WindowID == c.ID && r.Start == c.Start && r.End == c.End && r.N == int64(len(c.Tuples)) &&
		math.Float64bits(r.Scalar) == math.Float64bits(agg.Func{Op: agg.Sum}.Compute(vals))
}

func TestSingleBufferPaperScenario(t *testing.T) {
	// Replays the exact scenario of Figs. 3–4: tuples with timestamps
	// 47, 51, 53, 55, 62, 71, 72 arrive, then 61, then watermark 69
	// completes window (50, 65) and evicts ts 47.
	m, met := storm(t, window.Spec{Domain: window.TimeDomain, Range: 15, Slide: 5})
	for _, ts := range []int64{47, 51, 53, 55, 62, 71, 72, 61} {
		if rs := feedRuns(t, m, []tuple.Tuple{row(ts, float64(ts))}, 1); rs != nil {
			t.Fatalf("time-domain ingest fired %v", rs)
		}
	}
	// The first tuple (ts 47) starts at window (35,50); watermark 69
	// completes windows up to (50,65): ids 7..10.
	rs := watermark(t, m, 69)
	if len(rs) == 0 {
		t.Fatal("no windows completed")
	}
	last := rs[len(rs)-1]
	if last.Start != 50 || last.End != 65 {
		t.Fatalf("last window = [%d, %d), want [50, 65)", last.Start, last.End)
	}
	if last.N != 5 || last.Scalar != 51+53+55+62+61 {
		t.Fatalf("window (50,65) summed %d tuples to %v, want 51, 53, 55, 62 and 61", last.N, last.Scalar)
	}
	// Eviction: 47, 51 and 53 precede window 11, [55, 70); 55, 62, 71,
	// 72 and 61 stay buffered.
	if got := met.MemBytes.Load(); got != 5*rowBytes {
		t.Errorf("%d bytes buffered after the fire, want 5 tuples' %d", got, 5*rowBytes)
	}
}

func TestSingleBufferTumbling(t *testing.T) {
	m, met := storm(t, window.Spec{Domain: window.TimeDomain, Range: 10, Slide: 10})
	var rows []tuple.Tuple
	for ts := int64(0); ts < 25; ts++ {
		rows = append(rows, row(ts, 1))
	}
	feedRuns(t, m, rows, 1)
	rs := watermark(t, m, 20)
	if len(rs) != 2 {
		t.Fatalf("completed %d windows, want 2", len(rs))
	}
	if rs[0].N != 10 || rs[1].N != 10 {
		t.Errorf("sizes = %d, %d; want 10, 10", rs[0].N, rs[1].N)
	}
	// 5 tuples (20..24) remain.
	if got := met.MemBytes.Load(); got != 5*rowBytes {
		t.Errorf("%d bytes buffered, want %d", got, 5*rowBytes)
	}
	// Re-watermark at the same point is a no-op.
	if rs = watermark(t, m, 20); rs != nil {
		t.Errorf("repeat watermark fired %v", rs)
	}
}

func TestSingleBufferSlidingMembership(t *testing.T) {
	// Every tuple must appear in exactly Overlap() consecutive windows
	// once enough watermarks pass (ignoring stream edges): each interior
	// window holds exactly the positions of its range.
	m, _ := storm(t, window.Spec{Domain: window.TimeDomain, Range: 20, Slide: 5})
	var rows []tuple.Tuple
	for ts := int64(0); ts < 200; ts++ {
		rows = append(rows, row(ts, float64(ts)))
	}
	feedRuns(t, m, rows, 1)
	interior := 0
	for _, r := range watermark(t, m, 200) {
		if r.Start < 0 || r.End > 200 {
			continue
		}
		interior++
		if want := float64(r.Start+r.End-1) * 10; r.N != 20 || r.Scalar != want {
			t.Errorf("window [%d, %d) summed %d tuples to %v, want 20 to %v", r.Start, r.End, r.N, r.Scalar, want)
		}
	}
	if interior != 37 {
		t.Errorf("%d interior windows, want 37", interior)
	}
}

func TestSingleBufferLateTuples(t *testing.T) {
	m, met := storm(t, window.Spec{Domain: window.TimeDomain, Range: 10, Slide: 10})
	feedRuns(t, m, []tuple.Tuple{row(5, 1)}, 1)
	watermark(t, m, 30)
	// ts 3 belongs only to window [0,10), already fired → dropped.
	feedRuns(t, m, []tuple.Tuple{row(3, 1)}, 1)
	if m.LateDropped() != 1 || met.LateDropped.Load() != 1 {
		t.Errorf("LateDropped = %d, booked %d; want 1", m.LateDropped(), met.LateDropped.Load())
	}
	// ts 35 is fine.
	feedRuns(t, m, []tuple.Tuple{row(35, 1)}, 1)
	if rs := watermark(t, m, 40); len(rs) != 1 || rs[0].N != 1 {
		t.Errorf("results = %+v", rs)
	}
}

func TestSingleBufferCountWindows(t *testing.T) {
	m, _ := storm(t, window.Spec{Domain: window.CountDomain, Range: 5, Slide: 5})
	var rows []tuple.Tuple
	for i := 0; i < 17; i++ {
		// Event timestamps are arbitrary for count windows.
		rows = append(rows, row(int64(1000+i*7), float64(i)))
	}
	fired := feedRuns(t, m, rows, 1)
	if len(fired) != 3 {
		t.Fatalf("fired %d count windows, want 3", len(fired))
	}
	for i, r := range fired {
		// Window i holds values 5i..5i+4.
		if want := float64(25*i + 10); r.N != 5 || r.Scalar != want {
			t.Errorf("window %d summed %d tuples to %v, want 5 to %v", i, r.N, r.Scalar, want)
		}
	}
	// Watermarks are ignored in count domain.
	if rs := watermark(t, m, 1<<40); rs != nil {
		t.Errorf("count-domain watermark fired %v", rs)
	}
}

func TestSingleBufferCountSliding(t *testing.T) {
	m, _ := storm(t, window.Spec{Domain: window.CountDomain, Range: 10, Slide: 5})
	var rows []tuple.Tuple
	for i := 0; i < 30; i++ {
		rows = append(rows, row(0, float64(i)))
	}
	var total int64
	for _, r := range feedRuns(t, m, rows, 1) {
		// The first window, [-5, 5), holds the stream's first 5 tuples.
		if want := min(int64(10), r.End); r.N != want {
			t.Errorf("window [%d,%d) size = %d, want %d", r.Start, r.End, r.N, want)
		}
		total += r.N
	}
	if total != 5+5*10 {
		t.Fatalf("the windows fired hold %d tuples, want 55", total)
	}
}

func TestSingleBufferConfigValidation(t *testing.T) {
	if _, err := core.NewExactManager(core.Config{Spec: window.Spec{Range: 0, Slide: 0}}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func newMB(t *testing.T, spec window.Spec) *window.MultiBuffer {
	t.Helper()
	m, err := window.NewMultiBuffer(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiBufferMatchesSingleBuffer(t *testing.T) {
	// Property: both designs deliver identical windows for in-order
	// streams, whatever the runs the Storm manager is handed between two
	// watermarks.
	specs := []window.Spec{
		{Domain: window.TimeDomain, Range: 15, Slide: 5},
		{Domain: window.TimeDomain, Range: 10, Slide: 10},
		{Domain: window.CountDomain, Range: 8, Slide: 4},
	}
	for _, spec := range specs {
		for _, size := range []int{1, 3, 64} {
			sb, _ := storm(t, spec)
			mb := newMB(t, spec)
			var sbOut []core.Result
			var mbOut []window.Complete
			var pending []tuple.Tuple
			for ts := int64(0); ts < 100; ts++ {
				pending = append(pending, row(ts, float64(ts)))
				mbOut = append(mbOut, mb.OnTuple(row(ts, float64(ts)))...)
				if ts%10 == 0 {
					sbOut = append(sbOut, feedRuns(t, sb, pending, size)...)
					pending = pending[:0]
					sbOut = append(sbOut, watermark(t, sb, ts)...)
					mbOut = append(mbOut, mb.OnWatermark(ts)...)
				}
			}
			sbOut = append(sbOut, feedRuns(t, sb, pending, size)...)
			sbOut = append(sbOut, watermark(t, sb, 100)...)
			mbOut = append(mbOut, mb.OnWatermark(100)...)
			if len(sbOut) != len(mbOut) {
				t.Fatalf("spec %v, runs of %d: %d vs %d windows", spec, size, len(sbOut), len(mbOut))
			}
			for i := range sbOut {
				if !sameWindow(sbOut[i], mbOut[i]) {
					t.Fatalf("spec %v, runs of %d, window %d: %+v vs %+v", spec, size, i, sbOut[i], mbOut[i])
				}
			}
		}
	}
}

// TestSingleBufferStagesTheWindowsThatHoldTuples: the Storm manager
// derives the windows a fire stages from the tuples it buffers, and the
// multi buffer has one buffer per window; over sparse, disordered
// streams (gaps wider than a window, ranges that are no multiple of the
// slide, tuples that share their newest window but not their oldest)
// both must stage the same windows with the same tuples in the same
// order, the Storm manager taking what arrives between two watermarks
// in runs of random length and the multi buffer a tuple at a time.
func TestSingleBufferStagesTheWindowsThatHoldTuples(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := window.Spec{Domain: window.TimeDomain, Range: 1 + rng.Int63n(20)}
		spec.Slide = 1 + rng.Int63n(spec.Range)
		sb, _ := storm(t, spec)
		mb := newMB(t, spec)
		clock := rng.Int63n(100) - 50
		var pending []tuple.Tuple
		for step := 0; step < 300; step++ {
			if clock += rng.Int63n(3); rng.Intn(25) == 0 {
				clock += rng.Int63n(4 * spec.Range)
			}
			if rng.Intn(12) != 0 {
				tp := row(clock-rng.Int63n(2*spec.Range), rng.NormFloat64())
				pending = append(pending, tp)
				if c := mb.OnTuple(tp); c != nil {
					t.Fatalf("seed %d %s step %d: a time-domain tuple staged %d windows", seed, spec, step, len(c))
				}
				continue
			}
			// What arrived since the last watermark reaches the Storm
			// manager in runs of a random length.
			c1 := feedRuns(t, sb, pending, 1+rng.Intn(len(pending)+1))
			pending = pending[:0]
			wm := clock - rng.Int63n(spec.Range+1)
			c1 = append(c1, watermark(t, sb, wm)...)
			c2 := mb.OnWatermark(wm)
			if len(c1) != len(c2) {
				t.Fatalf("seed %d %s step %d: Storm answered %d windows, multi buffer staged %d", seed, spec, step, len(c1), len(c2))
			}
			for i := range c1 {
				if !sameWindow(c1[i], c2[i]) {
					t.Fatalf("seed %d %s step %d: window %d (%d tuples) vs window %d (%d tuples)", seed, spec, step, c1[i].WindowID, c1[i].N, c2[i].ID, len(c2[i].Tuples))
				}
			}
		}
		feedRuns(t, sb, pending, len(pending)+1)
		if sb.LateDropped() != mb.LateDropped() {
			t.Fatalf("seed %d %s: %d vs %d late", seed, spec, sb.LateDropped(), mb.LateDropped())
		}
	}
}

func TestMultiBufferUsesMoreMemory(t *testing.T) {
	// The paper's point in Fig. 3: sliding windows cost Overlap()
	// copies in the multi-buffer design, one in the single-buffer.
	spec := window.Spec{Domain: window.TimeDomain, Range: 30, Slide: 10}
	sb, met := storm(t, spec)
	mb := newMB(t, spec)
	for ts := int64(100); ts < 200; ts++ { // interior, no edge effects
		feedRuns(t, sb, []tuple.Tuple{row(ts, 0)}, 1)
		mb.OnTuple(row(ts, 0))
	}
	if single := met.MemBytes.Load(); int64(mb.MemUsage()) < 2*single {
		t.Errorf("multi=%d single=%d: want ≈3× for overlap 3", mb.MemUsage(), single)
	}
}

func BenchmarkSingleBufferTuple(b *testing.B) {
	m, _ := storm(b, window.Sliding(15*time.Minute, 5*time.Minute))
	run := make([]tuple.Tuple, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run = append(run, row(int64(i)*int64(time.Second), 1))
		if len(run) == cap(run) || i%10000 == 9999 {
			feedRuns(b, m, run, len(run))
			run = run[:0]
		}
		if i%10000 == 9999 {
			watermark(b, m, int64(i)*int64(time.Second))
		}
	}
}
