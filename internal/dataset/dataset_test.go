package dataset

import (
	"math"
	"testing"
	"time"

	"spear/internal/stats"
	"spear/internal/tuple"
	"spear/internal/window"
)

// drain reads the stream to its end.
func drain(s *Stream) []tuple.Tuple {
	var out []tuple.Tuple
	for t, ok := s.Next(); ok; t, ok = s.Next() {
		out = append(out, t)
	}
	return out
}

func take(s *Stream, n int) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, n)
	for len(out) < n {
		t, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[2].Name != "DEC" || rows[2].AvgWinSize != 47000 {
		t.Errorf("DEC row = %+v", rows[2])
	}
	if PaperTuples("DEC") != 4_000_000 || PaperTuples("GCM") != 24_000_000 || PaperTuples("DEBS") != 56_000_000 {
		t.Errorf("PaperTuples = %d/%d/%d, want the paper's 4M/24M/56M", PaperTuples("DEC"), PaperTuples("GCM"), PaperTuples("DEBS"))
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	mk := func() []*Stream {
		return []*Stream{
			DEC(DECConfig{Tuples: 500, Seed: 1}),
			GCM(GCMConfig{Tuples: 500, Seed: 1}),
			DEBS(DEBSConfig{Tuples: 500, Seed: 1}),
		}
	}
	a, b := mk(), mk()
	for i := range a {
		ta, tb := drain(a[i]), drain(b[i])
		if len(ta) != 500 || len(tb) != 500 {
			t.Fatalf("stream %d: lengths %d/%d", i, len(ta), len(tb))
		}
		for j := range ta {
			if ta[j].Ts != tb[j].Ts || ta[j].String() != tb[j].String() {
				t.Fatalf("stream %d: tuple %d differs", i, j)
			}
		}
	}
}

func TestStreamsEndCleanly(t *testing.T) {
	s := DEC(DECConfig{Tuples: 10, Seed: 1})
	if got := len(drain(s)); got != 10 {
		t.Fatalf("materialized %d", got)
	}
	if _, ok := s.Next(); ok {
		t.Error("stream yielded past its length")
	}
}

func TestTimestampsNonDecreasing(t *testing.T) {
	for i, s := range []*Stream{
		DEC(DECConfig{Tuples: 5000, Seed: 2}),
		GCM(GCMConfig{Tuples: 5000, Seed: 2}),
		DEBS(DEBSConfig{Tuples: 5000, Seed: 2}),
	} {
		prev := int64(-1)
		for _, tp := range drain(s) {
			if tp.Ts <= prev {
				t.Fatalf("stream %d: non-increasing ts %d after %d", i, tp.Ts, prev)
			}
			prev = tp.Ts
		}
	}
}

func TestDECShape(t *testing.T) {
	s := DEC(DECConfig{Tuples: 200_000, Seed: 3})
	if s.Key != nil || s.Window != window.Sliding(45*time.Second, 15*time.Second) {
		t.Error("DEC metadata wrong")
	}
	ts := drain(s)
	var w stats.Welford
	for _, tp := range ts {
		v := s.Value(tp)
		if v < 40 || v > 1500 {
			t.Fatalf("packet size %v out of range", v)
		}
		w.Add(v)
	}
	// Calibration: CV near 1 so budget 250 fails and 1000 passes the
	// 10% CI check (Fig. 11's regimes).
	cv := w.StdDev() / w.Mean()
	if cv < 0.75 || cv > 1.25 {
		t.Errorf("DEC CV = %.3f, want ≈1", cv)
	}
	// Rate: ≈1044/s → 200K tuples ≈ 191s.
	span := time.Duration(ts[len(ts)-1].Ts - ts[0].Ts)
	if span < 150*time.Second || span > 250*time.Second {
		t.Errorf("span = %v, want ≈191s", span)
	}
	// ≈47K tuples per 45s window.
	perWin := float64(len(ts)) / (float64(span) / float64(45*time.Second))
	if perWin < 40000 || perWin > 55000 {
		t.Errorf("tuples per window ≈ %.0f, want ≈47K", perWin)
	}
}

func TestGCMShape(t *testing.T) {
	s := GCM(GCMConfig{Tuples: 100_000, Seed: 4})
	ts := drain(s)
	classes := map[string]int{}
	for _, tp := range ts {
		c := s.Key(tp)
		classes[c]++
		if v := s.Value(tp); v < 0 || math.IsNaN(v) {
			t.Fatalf("cpu %v invalid", v)
		}
	}
	if len(classes) != SchedClasses {
		t.Fatalf("distinct classes = %d, want %d", len(classes), SchedClasses)
	}
	// Skewed mix: sc0 dominates, sc3 rare but present.
	if classes["sc0"] < classes["sc1"] || classes["sc1"] < classes["sc2"] || classes["sc2"] < classes["sc3"] {
		t.Errorf("class mix not skewed: %v", classes)
	}
	if classes["sc3"] < 2000 {
		t.Errorf("sc3 too rare: %d", classes["sc3"])
	}
	// Window override for the Fig. 10 sweep.
	s2 := GCM(GCMConfig{Tuples: 1, Seed: 1, WindowSize: 900 * time.Second, WindowSlide: 450 * time.Second})
	if s2.Window.Range != int64(900*time.Second) {
		t.Error("window override ignored")
	}
}

func TestDEBSSparsity(t *testing.T) {
	s := DEBS(DEBSConfig{Tuples: 10_000, Seed: 5})
	ts := drain(s)
	routes := map[string]int{}
	for _, tp := range ts {
		routes[s.Key(tp)]++
		if f := s.Value(tp); f <= 0 || f > 1000 {
			t.Fatalf("fare %v implausible", f)
		}
	}
	// The paper's sparsity: ≈5K distinct routes per 10K-tuple window,
	// most appearing once or twice.
	if len(routes) < 3500 || len(routes) > 6500 {
		t.Errorf("distinct routes = %d, want ≈5K", len(routes))
	}
	rare := 0
	for _, c := range routes {
		if c <= 2 {
			rare++
		}
	}
	if frac := float64(rare) / float64(len(routes)); frac < 0.75 {
		t.Errorf("only %.2f of routes appear ≤2 times, want most", frac)
	}
	// Rate: ≈10K tuples per 30min window.
	span := time.Duration(ts[len(ts)-1].Ts - ts[0].Ts)
	if span < 20*time.Minute || span > 45*time.Minute {
		t.Errorf("span = %v, want ≈30min", span)
	}
}

func TestRouteNameStable(t *testing.T) {
	if routeName(12345) != routeName(12345) {
		t.Error("routeName not deterministic")
	}
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		seen[routeName(i)] = true
	}
	if len(seen) < 9900 {
		t.Errorf("routeName collides heavily: %d distinct of 10000", len(seen))
	}
}

func BenchmarkDECGenerate(b *testing.B) {
	s := DEC(DECConfig{Tuples: 1 << 30, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func BenchmarkDEBSGenerate(b *testing.B) {
	s := DEBS(DEBSConfig{Tuples: 1 << 30, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}
