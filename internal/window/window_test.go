package window

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"spear/internal/tuple"
)

// Overlap returns the number of windows each tuple participates in
// (⌈Range/Slide⌉): 1 for tumbling, more for sliding. It is the oracle
// of the assign property.
func (s Spec) Overlap() int {
	return int((s.Range + s.Slide - 1) / s.Slide)
}

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

func newMB(t *testing.T, spec Spec) *MultiBuffer {
	t.Helper()
	m, err := NewMultiBuffer(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
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
