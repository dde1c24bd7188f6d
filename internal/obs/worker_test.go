package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/leakcheck"
)

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Set(50)
	g.Set(20)
	if g.Load() != 20 {
		t.Errorf("Load = %d", g.Load())
	}
	if g.Peak() != 50 {
		t.Errorf("Peak = %d", g.Peak())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for _, v := range []float64{10, 20, 30, 40, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 30 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if got := h.Percentile(0.5); got != 30 {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Percentile(0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := h.Percentile(1); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	// Interpolated p95 between 40 and 50.
	if got := h.Percentile(0.95); got <= 40 || got > 50 {
		t.Errorf("p95 = %v", got)
	}
	s := h.retained()
	if len(s) != 5 || s[0] != 10 {
		t.Errorf("retained = %v", s)
	}
	s[0] = 999
	if h.Percentile(0.5) != 30 {
		t.Error("retained aliases internal storage")
	}
}

func TestGaugeConcurrentPeak(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j <= 1000; j++ {
				g.Set(int64(w*1000 + j))
			}
		}(w)
	}
	wg.Wait()
	if g.Peak() != 8000 {
		t.Errorf("Peak = %d, want 8000 (CAS max must never lose the high-water mark)", g.Peak())
	}
	if g.Load() < 0 || g.Load() > 8000 {
		t.Errorf("Load = %d outside observed range", g.Load())
	}
}

// TestInstrumentsAreLockFree holds the two instruments documented
// lock-free, which the managers and the worker loops update per run, to
// that contract: neither ever waits on another goroutine.
func TestInstrumentsAreLockFree(t *testing.T) {
	var g Gauge
	t.Run("Gauge.Set", func(t *testing.T) {
		leakcheck.NoBlocking(t, func(_, i int) { g.Set(int64(i)) })
	})
	var b BatchOccupancy
	t.Run("BatchOccupancy.Record", func(t *testing.T) {
		leakcheck.NoBlocking(t, func(_, i int) { b.Record(i & 511) })
	})
}

// TestHistogramBoundedMemory is the regression test for the unbounded-
// growth bug: 10M observations must retain O(HistogramCap) samples while
// the aggregate statistics stay exact.
func TestHistogramBoundedMemory(t *testing.T) {
	var h Histogram
	const n = 10_000_000
	for i := 0; i < n; i++ {
		h.Observe(float64(i % 1000))
	}
	if got := len(h.retained()); got > HistogramCap {
		t.Fatalf("retained %d samples, want <= %d", got, HistogramCap)
	}
	if h.Count() != n {
		t.Errorf("Count = %d, want %d", h.Count(), n)
	}
	if got, want := h.Mean(), 499.5; got != want {
		t.Errorf("Mean = %v, want %v (must be exact beyond the cap)", got, want)
	}
	// The reservoir is uniform over [0, 1000): the median estimate must
	// land near 500 (±10% is far looser than a 4096-sample bound).
	if p50 := h.Percentile(0.5); p50 < 400 || p50 > 600 {
		t.Errorf("p50 = %v, want ~500 from the reservoir", p50)
	}
}

// TestHistogramSmallRunExact pins that runs under the cap are unchanged
// by the bounding: every observation is retained and order statistics
// are computed over the full set, exactly as before.
func TestHistogramSmallRunExact(t *testing.T) {
	var h Histogram
	n := HistogramCap // boundary: still exact
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	if got := len(h.retained()); got != n {
		t.Fatalf("retained %d samples, want all %d under the cap", got, n)
	}
	if got, want := h.Percentile(0.5), float64(n-1)/2; got != want {
		t.Errorf("p50 = %v, want exact %v", got, want)
	}
	if got, want := h.Percentile(0.95), 0.95*float64(n-1); got != want {
		t.Errorf("p95 = %v, want exact %v", got, want)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(3 * time.Millisecond)
	if h.Mean() != 3e6 {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestSummarize(t *testing.T) {
	r := NewInstruments()
	w1 := r.Worker("op-0")
	w2 := r.Worker("op-1")
	if r.Worker("op-0") != w1 {
		t.Fatal("a worker asked for twice by name must be one bundle")
	}

	w1.WindowsTotal.Add(4)
	w1.WindowsAccelerated.Add(4)
	w1.TuplesIn.Add(100)
	w1.MemBytes.Set(1000)
	w2.WindowsTotal.Add(4)
	w2.TuplesIn.Add(100)
	w2.MemBytes.Set(3000)
	w2.LateDropped.Add(1)
	w2.EstimationFailures.Add(2)
	for _, v := range []float64{1e6, 2e6} {
		w1.ProcTime.Observe(v)
		w2.ProcTime.Observe(v * 10)
	}

	s := r.Summarize()
	if s.Workers != 2 || s.Windows != 8 || s.Accelerated != 4 || s.TuplesIn != 200 {
		t.Errorf("Summary = %+v", s)
	}
	if s.MeanMemBytes != 2000 {
		t.Errorf("MeanMemBytes = %v", s.MeanMemBytes)
	}
	// Pooled mean of {1, 2, 10, 20} ms = 8.25ms.
	if s.MeanProcTime != time.Duration(8.25e6) {
		t.Errorf("MeanProcTime = %v", s.MeanProcTime)
	}
	if s.LateDropped != 1 || s.EstimationFailures != 2 {
		t.Errorf("Summary = %+v", s)
	}
	if !strings.Contains(s.String(), "windows=8") {
		t.Errorf("String = %q", s.String())
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewInstruments().Summarize()
	if s.Workers != 0 || s.MeanProcTime != 0 || s.MeanMemBytes != 0 {
		t.Errorf("empty Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("String should render")
	}
}
