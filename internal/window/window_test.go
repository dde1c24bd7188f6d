package window

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"spear/internal/tuple"
)

func TestSpecConstructors(t *testing.T) {
	s := Sliding(15*time.Minute, 5*time.Minute)
	if s.Domain != TimeDomain || s.Range != int64(15*time.Minute) || s.Slide != int64(5*time.Minute) {
		t.Errorf("Sliding = %+v", s)
	}
	if s.IsTumbling() {
		t.Error("sliding should not be tumbling")
	}
	if s.Overlap() != 3 {
		t.Errorf("Overlap = %d, want 3", s.Overlap())
	}
	tm := Tumbling(time.Minute)
	if !tm.IsTumbling() || tm.Overlap() != 1 {
		t.Errorf("Tumbling = %+v", tm)
	}
	cs := CountSliding(100, 20)
	if cs.Domain != CountDomain || cs.Overlap() != 5 {
		t.Errorf("CountSliding = %+v", cs)
	}
	if ct := CountSliding(50, 50); !ct.IsTumbling() {
		t.Errorf("CountSliding(50, 50) = %+v", ct)
	}
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name string
		s    Spec
		ok   bool
	}{
		{"valid sliding", Sliding(10, 5), true},
		{"valid tumbling", Tumbling(10), true},
		{"zero range", Spec{Range: 0, Slide: 1}, false},
		{"zero slide", Spec{Range: 10, Slide: 0}, false},
		{"slide > range", Spec{Range: 10, Slide: 20}, false},
		{"bad domain", Spec{Domain: 9, Range: 10, Slide: 5}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.s.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate = %v, ok=%v", err, tc.ok)
			}
		})
	}
}

func TestSpecString(t *testing.T) {
	tests := []struct {
		s    Spec
		want string
	}{
		{Sliding(15*time.Minute, 5*time.Minute), "sliding(15m0s, 5m0s)"},
		{Tumbling(time.Minute), "tumbling(1m0s)"},
		{CountSliding(100, 20), "count-sliding(100, 20)"},
		{CountSliding(50, 50), "count-tumbling(50)"},
	}
	for _, tc := range tests {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestAssignPaperExample(t *testing.T) {
	// The paper's Fig. 3: range 15, slide 5 — the tuple at ts 61
	// participates in windows (50,65), (55,70), (60,75).
	s := Spec{Domain: TimeDomain, Range: 15, Slide: 5}
	lo, hi := s.Assign(61)
	if lo != 10 || hi != 12 {
		t.Fatalf("Assign(61) = [%d, %d], want [10, 12]", lo, hi)
	}
	for id, want := range map[ID][2]int64{10: {50, 65}, 11: {55, 70}, 12: {60, 75}} {
		start, end := s.Bounds(id)
		if start != want[0] || end != want[1] {
			t.Errorf("Bounds(%d) = [%d, %d), want [%d, %d)", id, start, end, want[0], want[1])
		}
	}
	// Watermark 69 completes window (50, 65) but not (55, 70) — Fig. 4.
	if got := s.FirstCompleteBy(69); got != 10 {
		t.Errorf("FirstCompleteBy(69) = %d, want 10", got)
	}
	if got := s.FirstCompleteBy(70); got != 11 {
		t.Errorf("FirstCompleteBy(70) = %d, want 11", got)
	}
}

func TestAssignBoundariesProperty(t *testing.T) {
	f := func(tsRaw int32, rngRaw, slideRaw uint8) bool {
		rng := int64(rngRaw%50) + 1
		slide := int64(slideRaw%50) + 1
		if slide > rng {
			slide = rng
		}
		s := Spec{Domain: TimeDomain, Range: rng, Slide: slide}
		ts := int64(tsRaw)
		lo, hi := s.Assign(ts)
		// Every window in [lo, hi] contains ts; neighbors do not.
		for id := lo; id <= hi; id++ {
			start, end := s.Bounds(id)
			if ts < start || ts >= end {
				return false
			}
		}
		if s1, _ := s.Bounds(hi + 1); ts >= s1 {
			return false
		}
		if _, e0 := s.Bounds(lo - 1); ts < e0 {
			return false
		}
		// Overlap count matches.
		return int(hi-lo+1) == s.Overlap() || int(hi-lo+1) == s.Overlap()-1 ||
			(int(hi-lo+1) >= 1 && int(hi-lo+1) <= s.Overlap())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFirstCompleteByConsistent(t *testing.T) {
	f := func(wmRaw int32, rngRaw, slideRaw uint8) bool {
		rng := int64(rngRaw%50) + 1
		slide := int64(slideRaw%50) + 1
		if slide > rng {
			slide = rng
		}
		s := Spec{Domain: TimeDomain, Range: rng, Slide: slide}
		wm := int64(wmRaw)
		k := s.FirstCompleteBy(wm)
		_, end := s.Bounds(k)
		_, endNext := s.Bounds(k + 1)
		return end <= wm && endNext > wm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func mkTuple(ts int64, v float64) tuple.Tuple {
	return tuple.New(ts, tuple.Float(v))
}

// runOfOne hands m one tuple: a run of one.
func runOfOne(m *SingleBuffer, t tuple.Tuple) []Complete {
	return m.OnTupleBatch([]tuple.Tuple{t})
}

// feedRuns hands m rows in runs of size (the last one shorter) and
// returns what they stage, in order.
func feedRuns(m *SingleBuffer, rows []tuple.Tuple, size int) []Complete {
	var out []Complete
	for i := 0; i < len(rows); i += size {
		out = append(out, m.OnTupleBatch(rows[i:min(i+size, len(rows))])...)
	}
	return out
}

func newSB(t *testing.T, spec Spec) *SingleBuffer {
	t.Helper()
	m, err := NewSingleBuffer(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSingleBufferPaperScenario(t *testing.T) {
	// Replays the exact scenario of Figs. 3–4: tuples with timestamps
	// 47, 51, 53, 55, 62, 71, 72 arrive, then 61, then watermark 69
	// completes window (50, 65) and evicts ts 47.
	s := Spec{Domain: TimeDomain, Range: 15, Slide: 5}
	m := newSB(t, s)
	for _, ts := range []int64{47, 51, 53, 55, 62, 71, 72, 61} {
		if got := runOfOne(m, mkTuple(ts, float64(ts))); got != nil {
			t.Fatalf("time-domain ingest fired %v", got)
		}
	}
	completes := m.OnWatermark(69)
	// The first tuple (ts 47) starts at window (35,50); watermark 69
	// completes windows up to (50,65): ids 7..10.
	if len(completes) == 0 {
		t.Fatal("no windows completed")
	}
	last := completes[len(completes)-1]
	if last.Start != 50 || last.End != 65 {
		t.Fatalf("last window = [%d, %d), want [50, 65)", last.Start, last.End)
	}
	want := map[int64]bool{51: true, 53: true, 55: true, 62: true, 61: true}
	if len(last.Tuples) != len(want) {
		t.Fatalf("window (50,65) has %d tuples, want %d: %v", len(last.Tuples), len(want), last.Tuples)
	}
	for _, tp := range last.Tuples {
		if !want[tp.Ts] {
			t.Errorf("unexpected tuple ts=%d in window", tp.Ts)
		}
	}
	// Eviction: ts 47 < start(11)=55 must be gone; so are 51, 53.
	for _, tp := range []int64{47, 51, 53} {
		for _, b := range completesAllTuples(m) {
			if b == tp {
				t.Errorf("ts %d survived eviction", tp)
			}
		}
	}
}

// completesAllTuples peeks at the manager's buffer via a full fire at
// +inf; test helper only.
func completesAllTuples(m *SingleBuffer) []int64 {
	var out []int64
	for _, t := range m.buf {
		out = append(out, t.Ts)
	}
	return out
}

func TestSingleBufferTumbling(t *testing.T) {
	m := newSB(t, Spec{Domain: TimeDomain, Range: 10, Slide: 10})
	for ts := int64(0); ts < 25; ts++ {
		runOfOne(m, mkTuple(ts, 1))
	}
	completes := m.OnWatermark(20)
	if len(completes) != 2 {
		t.Fatalf("completed %d windows, want 2", len(completes))
	}
	if len(completes[0].Tuples) != 10 || len(completes[1].Tuples) != 10 {
		t.Errorf("sizes = %d, %d; want 10, 10", len(completes[0].Tuples), len(completes[1].Tuples))
	}
	if m.MemUsage() >= m.PeakMemUsage() && m.MemUsage() != 0 {
		// 5 tuples (20..24) remain.
		t.Logf("mem=%d peak=%d", m.MemUsage(), m.PeakMemUsage())
	}
	// Re-watermark at the same point is a no-op.
	if completes = m.OnWatermark(20); completes != nil {
		t.Errorf("repeat watermark fired %v", completes)
	}
}

func TestSingleBufferSlidingMembership(t *testing.T) {
	// Every tuple must appear in exactly Overlap() consecutive windows
	// once enough watermarks pass (ignoring stream edges).
	s := Spec{Domain: TimeDomain, Range: 20, Slide: 5}
	m := newSB(t, s)
	counts := map[int64]int{}
	for ts := int64(0); ts < 200; ts++ {
		runOfOne(m, mkTuple(ts, 0))
	}
	for _, c := range m.OnWatermark(200) {
		for _, tp := range c.Tuples {
			counts[tp.Ts]++
		}
	}
	for ts := int64(20); ts < 180; ts++ { // interior tuples only
		if counts[ts] != 4 {
			t.Errorf("ts %d appeared in %d windows, want 4", ts, counts[ts])
		}
	}
}

func TestSingleBufferLateTuples(t *testing.T) {
	m := newSB(t, Spec{Domain: TimeDomain, Range: 10, Slide: 10})
	runOfOne(m, mkTuple(5, 1))
	m.OnWatermark(30)
	// ts 3 belongs only to window [0,10), already fired → dropped.
	runOfOne(m, mkTuple(3, 1))
	if m.LateDropped() != 1 {
		t.Errorf("LateDropped = %d, want 1", m.LateDropped())
	}
	// ts 35 is fine.
	runOfOne(m, mkTuple(35, 1))
	completes := m.OnWatermark(40)
	if len(completes) != 1 || len(completes[0].Tuples) != 1 {
		t.Errorf("completes = %+v", completes)
	}
}

func TestSingleBufferCountWindows(t *testing.T) {
	m := newSB(t, Spec{Domain: CountDomain, Range: 5, Slide: 5})
	var fired []Complete
	for i := 0; i < 17; i++ {
		// Event timestamps are arbitrary for count windows.
		fired = append(fired, runOfOne(m, mkTuple(int64(1000+i*7), float64(i)))...)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d count windows, want 3", len(fired))
	}
	for i, c := range fired {
		if len(c.Tuples) != 5 {
			t.Errorf("window %d size = %d, want 5", i, len(c.Tuples))
		}
		// Window i holds values 5i..5i+4 in order.
		for j, tp := range c.Tuples {
			if want := float64(5*i + j); tp.Vals[0].AsFloat() != want {
				t.Errorf("window %d tuple %d = %v, want %v", i, j, tp.Vals[0], want)
			}
		}
	}
	// Watermarks are ignored in count domain.
	if cs := m.OnWatermark(1 << 40); cs != nil {
		t.Errorf("count-domain watermark fired %v", cs)
	}
}

func TestSingleBufferCountSliding(t *testing.T) {
	m := newSB(t, Spec{Domain: CountDomain, Range: 10, Slide: 5})
	total := 0
	for i := 0; i < 30; i++ {
		for _, c := range runOfOne(m, mkTuple(0, float64(i))) {
			if len(c.Tuples) != 10 && c.Start >= 0 {
				// The very first window [−5,5) style edges don't
				// occur: count starts at 0, so first is [0,10)?
				// Actually the first fired id may cover [-5, 5).
				if c.Start < 0 && len(c.Tuples) == 5 {
					continue
				}
				t.Errorf("window [%d,%d) size = %d", c.Start, c.End, len(c.Tuples))
			}
			total += len(c.Tuples)
		}
	}
	if total == 0 {
		t.Fatal("no windows fired")
	}
}

func TestSingleBufferConfigValidation(t *testing.T) {
	if _, err := NewSingleBuffer(Spec{Range: 0, Slide: 0}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func newMB(t *testing.T, spec Spec) *MultiBuffer {
	t.Helper()
	m, err := NewMultiBuffer(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiBufferMatchesSingleBuffer(t *testing.T) {
	// Property: both designs deliver identical window contents (as
	// multisets of timestamps) for in-order streams, whatever the runs
	// the single buffer is handed between two watermarks.
	specs := []Spec{
		{Domain: TimeDomain, Range: 15, Slide: 5},
		{Domain: TimeDomain, Range: 10, Slide: 10},
		{Domain: CountDomain, Range: 8, Slide: 4},
	}
	for _, spec := range specs {
		for _, size := range []int{1, 3, 64} {
			sb := newSB(t, spec)
			mb := newMB(t, spec)
			var sbOut, mbOut []Complete
			var pending []tuple.Tuple
			for ts := int64(0); ts < 100; ts++ {
				pending = append(pending, mkTuple(ts, float64(ts)))
				mbOut = append(mbOut, mb.OnTuple(mkTuple(ts, float64(ts)))...)
				if ts%10 == 0 {
					sbOut = append(sbOut, feedRuns(sb, pending, size)...)
					pending = pending[:0]
					sbOut = append(sbOut, sb.OnWatermark(ts)...)
					mbOut = append(mbOut, mb.OnWatermark(ts)...)
				}
			}
			sbOut = append(sbOut, feedRuns(sb, pending, size)...)
			sbOut = append(sbOut, sb.OnWatermark(100)...)
			mbOut = append(mbOut, mb.OnWatermark(100)...)
			compareStaged(t, spec, size, sbOut, mbOut)
		}
	}
}

// compareStaged requires both designs to have staged the same windows
// with the same contents, as multisets of timestamps.
func compareStaged(t *testing.T, spec Spec, size int, sbOut, mbOut []Complete) {
	t.Helper()
	if len(sbOut) != len(mbOut) {
		t.Fatalf("spec %v, runs of %d: %d vs %d windows", spec, size, len(sbOut), len(mbOut))
	}
	for i := range sbOut {
		a, b := sbOut[i], mbOut[i]
		if a.ID != b.ID || a.Start != b.Start || a.End != b.End {
			t.Fatalf("spec %v, runs of %d, window %d: %+v vs %+v", spec, size, i, a, b)
		}
		if len(a.Tuples) != len(b.Tuples) {
			t.Fatalf("spec %v, runs of %d, window %d sizes: %d vs %d", spec, size, i, len(a.Tuples), len(b.Tuples))
		}
		am := map[int64]int{}
		bm := map[int64]int{}
		for j := range a.Tuples {
			am[a.Tuples[j].Ts]++
			bm[b.Tuples[j].Ts]++
		}
		for k, v := range am {
			if bm[k] != v {
				t.Fatalf("spec %v, runs of %d, window %d multiset mismatch at ts %d", spec, size, i, k)
			}
		}
	}
}

// TestSingleBufferStagesTheWindowsThatHoldTuples: the single buffer
// derives the windows a fire stages from the tuples it holds, and the
// multi buffer has one buffer per window; over sparse, disordered
// streams (gaps wider than a window, ranges that are no multiple of the
// slide, tuples that share their newest window but not their oldest)
// both must stage the same windows with the same tuples in the same
// order, the single buffer taking what arrives between two watermarks
// in runs of random length and the multi buffer a tuple at a time.
func TestSingleBufferStagesTheWindowsThatHoldTuples(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := Spec{Domain: TimeDomain, Range: 1 + rng.Int63n(20)}
		spec.Slide = 1 + rng.Int63n(spec.Range)
		sb, mb := newSB(t, spec), newMB(t, spec)
		clock := rng.Int63n(100) - 50
		var pending []tuple.Tuple
		for step := 0; step < 300; step++ {
			if clock += rng.Int63n(3); rng.Intn(25) == 0 {
				clock += rng.Int63n(4 * spec.Range)
			}
			if rng.Intn(12) != 0 {
				tp := mkTuple(clock-rng.Int63n(2*spec.Range), float64(step))
				pending = append(pending, tp)
				if c := mb.OnTuple(tp); c != nil {
					t.Fatalf("seed %d %s step %d: a time-domain tuple staged %d windows", seed, spec, step, len(c))
				}
				continue
			}
			// What arrived since the last watermark reaches the single
			// buffer in runs of a random length.
			c1 := feedRuns(sb, pending, 1+rng.Intn(len(pending)+1))
			pending = pending[:0]
			wm := clock - rng.Int63n(spec.Range+1)
			c1 = append(c1, sb.OnWatermark(wm)...)
			c2 := mb.OnWatermark(wm)
			if len(c1) != len(c2) {
				t.Fatalf("seed %d %s step %d: single buffer staged %d windows, multi buffer %d", seed, spec, step, len(c1), len(c2))
			}
			for i := range c1 {
				a, b := c1[i], c2[i]
				same := a.ID == b.ID && a.Start == b.Start && a.End == b.End && len(a.Tuples) == len(b.Tuples)
				for j := 0; same && j < len(a.Tuples); j++ {
					same = a.Tuples[j].Ts == b.Tuples[j].Ts && a.Tuples[j].Vals[0].Equal(b.Tuples[j].Vals[0])
				}
				if !same {
					t.Fatalf("seed %d %s step %d: window %d (%d tuples) vs window %d (%d tuples)", seed, spec, step, a.ID, len(a.Tuples), b.ID, len(b.Tuples))
				}
			}
		}
		feedRuns(sb, pending, len(pending)+1)
		if sb.LateDropped() != mb.LateDropped() {
			t.Fatalf("seed %d %s: %d vs %d late", seed, spec, sb.LateDropped(), mb.LateDropped())
		}
	}
}

func TestMultiBufferUsesMoreMemory(t *testing.T) {
	// The paper's point in Fig. 3: sliding windows cost Overlap()
	// copies in the multi-buffer design, one in the single-buffer.
	spec := Spec{Domain: TimeDomain, Range: 30, Slide: 10}
	sb := newSB(t, spec)
	mb := newMB(t, spec)
	for ts := int64(100); ts < 200; ts++ { // interior, no edge effects
		runOfOne(sb, mkTuple(ts, 0))
		mb.OnTuple(mkTuple(ts, 0))
	}
	if mb.MemUsage() < 2*sb.MemUsage() {
		t.Errorf("multi=%d single=%d: want ≈3× for overlap 3", mb.MemUsage(), sb.MemUsage())
	}
}

func TestMultiBufferLate(t *testing.T) {
	m := newMB(t, Spec{Domain: TimeDomain, Range: 10, Slide: 10})
	m.OnTuple(mkTuple(5, 0))
	m.OnWatermark(20)
	m.OnTuple(mkTuple(3, 0))
	if m.LateDropped() != 1 {
		t.Errorf("LateDropped = %d", m.LateDropped())
	}
}

func BenchmarkSingleBufferTuple(b *testing.B) {
	m, _ := NewSingleBuffer(Sliding(15*time.Minute, 5*time.Minute))
	run := make([]tuple.Tuple, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run = append(run, mkTuple(int64(i)*int64(time.Second), 1))
		if len(run) == cap(run) || i%10000 == 9999 {
			m.OnTupleBatch(run)
			run = run[:0]
		}
		if i%10000 == 9999 {
			m.OnWatermark(int64(i) * int64(time.Second))
		}
	}
}

// Ablation: the buffering-cost comparison of Fig. 3 — single buffer
// stores each tuple once, multiple buffers store Overlap() copies.
func BenchmarkMultiBufferTuple(b *testing.B) {
	m, _ := NewMultiBuffer(Sliding(15*time.Minute, 5*time.Minute))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.OnTuple(mkTuple(int64(i)*int64(time.Second), 1))
		if i%10000 == 9999 {
			m.OnWatermark(int64(i) * int64(time.Second))
		}
	}
}

// TestMultiBufferGapFiresOnlyExistingWindows: a watermark that follows
// a 10⁹-slide gap visits the buffers that exist, not every id across
// the gap (which took minutes), and stages them in id order.
func TestMultiBufferGapFiresOnlyExistingWindows(t *testing.T) {
	const gap = 1_000_000_000
	mb := newMB(t, Spec{Domain: TimeDomain, Range: 3, Slide: 1})
	for _, ts := range []int64{0, 1, gap} {
		mb.OnTuple(mkTuple(ts, 1))
	}
	done := make(chan []Complete, 1)
	go func() {
		done <- mb.OnWatermark(math.MaxInt64)
	}()
	select {
	case cs := <-done:
		var got []ID
		for _, c := range cs {
			got = append(got, c.ID)
		}
		if want := []ID{-2, -1, 0, 1, gap - 2, gap - 1, gap}; !slices.Equal(got, want) {
			t.Errorf("fired %v, want %v", got, want)
		}
		if mb.MemUsage() != 0 {
			t.Errorf("%d bytes still buffered", mb.MemUsage())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnWatermark still running after 2 s: it is walking the gap")
	}
}
