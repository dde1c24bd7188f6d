package watermark

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratorEmitsOnBoundaries(t *testing.T) {
	g := NewGenerator(10, 0)
	type step struct {
		ts     int64
		wm     int64
		expect bool
	}
	steps := []step{
		{3, 0, true},   // first observation initializes
		{7, 0, false},  // same period
		{12, 10, true}, // crossed 10
		{13, 0, false},
		{35, 30, true}, // skipped periods collapse to the latest
		{36, 0, false},
	}
	for i, s := range steps {
		wm, emit := g.Observe(s.ts)
		if emit != s.expect || (emit && wm != s.wm) {
			t.Errorf("step %d: Observe(%d) = (%d, %v), want (%d, %v)",
				i, s.ts, wm, emit, s.wm, s.expect)
		}
	}
}

func TestGeneratorLag(t *testing.T) {
	g := NewGenerator(10, 5)
	// ts 3: 3−5=−2 → boundary −10 (initialization).
	if wm, emit := g.Observe(3); !emit || wm != -10 {
		t.Errorf("Observe(3) = (%d, %v), want (-10, true)", wm, emit)
	}
	// ts 12: 12−5=7 → boundary 0.
	if wm, emit := g.Observe(12); !emit || wm != 0 {
		t.Errorf("Observe(12) = (%d, %v), want (0, true)", wm, emit)
	}
	// ts 14: still boundary 0 — nothing new.
	if _, emit := g.Observe(14); emit {
		t.Error("watermark re-emitted within period")
	}
	// ts 17: 17−5=12 → boundary 10.
	wm, emit := g.Observe(17)
	if !emit || wm != 10 {
		t.Errorf("Observe(17) = (%d, %v)", wm, emit)
	}
}

func TestGeneratorNegativeTimes(t *testing.T) {
	g := NewGenerator(10, 0)
	wm, emit := g.Observe(-25)
	if !emit || wm != -30 {
		t.Errorf("Observe(-25) = (%d, %v), want (-30, true)", wm, emit)
	}
}

func TestGeneratorMonotoneProperty(t *testing.T) {
	g := NewGenerator(7, 3)
	last := int64(math.MinInt64)
	f := func(delta uint8) bool {
		// Feed a non-decreasing ts sequence.
		ts := last
		if ts == math.MinInt64 {
			ts = 0
		}
		ts += int64(delta % 20)
		wm, emit := g.Observe(ts)
		if emit {
			if wm > ts-3 { // never ahead of ts − lag
				return false
			}
			if wm%7 != 0 && wm%7 != -0 {
				return false
			}
		}
		last = ts
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewGenerator(0, 0) },
		func() { NewGenerator(10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// floorDivGenerator is Observe as it was before the division-free fast
// path: the period boundary under ts − lag, computed for every tuple.
type floorDivGenerator struct {
	period, lag, last int64
	init              bool
}

func (g *floorDivGenerator) Observe(ts int64) (int64, bool) {
	b := floorDiv(ts-g.lag, g.period) * g.period
	if !g.init {
		g.init = true
		g.last = b
		return b, true
	}
	if b > g.last {
		g.last = b
		return b, true
	}
	return 0, false
}

// TestObserveMatchesFloorDivForm is the property the fast path rests
// on: over any timestamp sequence Observe emits exactly the watermarks
// the divide-every-tuple form emits, at the same tuples. (Timestamps
// stay a period and a lag clear of MinInt64, below which the boundary
// under ts − lag is not an int64 and neither form means anything.)
func TestObserveMatchesFloorDivForm(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	streams := map[string]func(i int, prev int64) int64{
		"random":        func(int, int64) int64 { return r.Int63n(2_000_000) - 1_000_000 },
		"increasing":    func(_ int, prev int64) int64 { return prev + r.Int63n(40) },
		"decreasing":    func(_ int, prev int64) int64 { return prev - r.Int63n(40) },
		"negative":      func(i int, _ int64) int64 { return -5_000_000 + int64(i)*7 + r.Int63n(300) },
		"disordered":    func(i int, _ int64) int64 { return int64(i)*13 - r.Int63n(500) },
		"on boundaries": func(i int, _ int64) int64 { return int64(i/3) * 100 },
		"near MaxInt64": func(i int, _ int64) int64 { return math.MaxInt64 - 5_000 + int64(i) },
		"wide":          func(int, int64) int64 { return r.Int63() - 1<<62 },
	}
	for name, next := range streams {
		for _, period := range []int64{1, 7, 100, 1 << 40} {
			for _, lag := range []int64{0, 1, 99, 100, 2_500} {
				got, want := NewGenerator(period, lag), &floorDivGenerator{period: period, lag: lag}
				var ts int64
				for i := 0; i < 2_000; i++ {
					ts = next(i, ts)
					gw, ge := got.Observe(ts)
					ww, we := want.Observe(ts)
					if gw != ww || ge != we {
						t.Fatalf("%s, period %d, lag %d, tuple %d (ts %d): Observe = (%d, %v), floorDiv form (%d, %v)",
							name, period, lag, i, ts, gw, ge, ww, we)
					}
				}
			}
		}
	}
}
