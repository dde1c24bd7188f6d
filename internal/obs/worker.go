package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spear/internal/stats"
)

// Gauge is an instantaneous value with a recorded high-water mark. It
// is lock-free: Set is one atomic store plus a CAS loop that only spins
// while the peak is actually advancing, so per-tuple gauge refreshes in
// the core managers never serialize on a mutex.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Set records the current value and updates the peak.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Peak returns the high-water mark.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// HistogramCap bounds a Histogram's retained samples. Count, Sum and
// Mean stay exact forever; order statistics (Percentile) are exact up to HistogramCap observations and computed from a uniform
// reservoir sample beyond it. The cap keeps memory O(1) on unbounded
// streams — exactly the regime the live observability plane makes
// routine — while leaving short experiment runs (a few thousand windows)
// bit-identical to the previous keep-everything implementation.
const HistogramCap = 4096

// Histogram records float64 observations and reports order statistics.
// Memory is bounded at HistogramCap samples via reservoir sampling
// (Vitter's Algorithm R with a deterministic SplitMix64 stream);
// aggregate statistics (Count, Sum, Mean) are exact over every
// observation regardless of the cap.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	count   int64
	sum     float64
	rng     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.count++
	h.sum += v
	if len(h.samples) < HistogramCap {
		h.samples = append(h.samples, v)
	} else if j := h.rand64() % uint64(h.count); j < HistogramCap {
		h.samples[j] = v
	}
	h.mu.Unlock()
}

// rand64 steps the histogram's private SplitMix64 stream (caller holds
// the mutex). A fixed generator keeps reservoir contents deterministic
// for a given observation sequence.
func (h *Histogram) rand64() uint64 {
	h.rng += 0x9e3779b97f4a7c15
	z := h.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Count returns the number of observations (exact, beyond the cap too).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the exact arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Percentile returns the p-th percentile (p in [0,1]) by linear
// interpolation over the retained samples, or 0 with no observations.
// Up to HistogramCap observations this is exact; beyond it, it is an
// estimate from a uniform reservoir.
func (h *Histogram) Percentile(p float64) float64 {
	sorted := h.retained()
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	return stats.PercentileOfSorted(sorted, p)
}

// retained returns a copy of the retained observations in arrival
// order (all of them below HistogramCap; a uniform reservoir beyond).
func (h *Histogram) retained() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.samples))
	copy(out, h.samples)
	return out
}

// Worker is one window worker's telemetry bundle — what the paper reads
// from "Storm's metrics API … for each worker thread", plus the worker's
// event-time progress. Instruments.Worker creates it; the core manager
// counts into it (core.Config.Metrics) and the engine's worker loop
// records the watermark.
type Worker struct {
	Name string

	// ProcTime records the per-window processing time in nanoseconds:
	// the time from staging a complete window to emitting its result
	// (the metric of Figs. 6, 8, 10, 12).
	ProcTime Histogram

	// MemBytes tracks the worker's buffered bytes used to produce
	// results (Fig. 7); Peak gives the high-water mark.
	MemBytes Gauge

	// BudgetTuples is the sample budget currently in force — the
	// adaptive controller's trajectory, one point per worker.
	BudgetTuples Gauge

	TuplesIn            atomic.Int64 // tuples received
	WindowsTotal        atomic.Int64 // windows fired
	WindowsAccelerated  atomic.Int64 // windows answered from the sample
	WindowsExact        atomic.Int64 // windows processed in full
	WindowsSpilled      atomic.Int64 // windows that touched secondary storage
	WindowsShed         atomic.Int64 // windows answered sample-only because shedding dropped their archive
	LateDropped         atomic.Int64 // tuples behind the last fired window
	EstimationFailures  atomic.Int64 // accuracy checks that rejected acceleration
	TuplesProcessedFull atomic.Int64 // tuples scanned by exact processing
	TuplesShed          atomic.Int64 // tuples whose archive write was shed under overload

	// The last merged watermark the worker advanced to. Lag against the
	// source high-water mark is derived at snapshot time.
	watermark atomic.Int64
	hasWM     atomic.Bool
}

// SetWatermark records an advanced watermark (called once per
// watermark round, not per tuple).
func (w *Worker) SetWatermark(wm int64) {
	w.watermark.Store(wm)
	w.hasWM.Store(true)
}

// CheckpointMetrics bundles the fault-tolerance telemetry: how long
// snapshots take, how much state they write, and how long recovery
// took. One instance serves a
// whole run (all workers observe into the same histograms, which are
// already goroutine-safe).
type CheckpointMetrics struct {
	// SnapshotTime records each per-operator snapshot duration in
	// nanoseconds (serialize + persist).
	SnapshotTime Histogram
	// SnapshotBytes counts total snapshot bytes persisted (blobs and
	// manifests).
	SnapshotBytes atomic.Int64
	// Completed counts committed checkpoints; Failed counts rounds
	// aborted by an error.
	Completed atomic.Int64
	Failed    atomic.Int64
	// RecoveryTime is the nanoseconds spent restoring operator state
	// and rewinding secondary storage at startup.
	RecoveryTime Gauge
	// LastBytes is the size of the most recently committed checkpoint
	// (all blobs plus the manifest).
	LastBytes Gauge
}

// Summary aggregates a run's worker bundles.
type Summary struct {
	Workers            int
	Windows            int64
	Accelerated        int64
	MeanProcTime       time.Duration // mean of per-window times across workers
	P95ProcTime        time.Duration
	MeanMemBytes       float64 // mean of per-worker peak memory
	TuplesIn           int64
	LateDropped        int64
	EstimationFailures int64
}

// Summarize merges all workers' telemetry: processing times are pooled
// across workers (the paper reports "the average processing time among
// all workers"), memory is the mean per-worker peak. The mean uses the
// histograms' exact sums and counts, so it is unaffected by sample
// bounding; the 95th percentile pools the retained samples (exact while
// every worker stays under HistogramCap observations).
func (in *Instruments) Summarize() Summary {
	var s Summary
	var pooled []float64
	var memSum, procSum float64
	var procCount int64
	in.mu.Lock()
	workers := append([]*Worker(nil), in.workers...)
	in.mu.Unlock()
	for _, w := range workers {
		s.Workers++
		s.Windows += w.WindowsTotal.Load()
		s.Accelerated += w.WindowsAccelerated.Load()
		s.TuplesIn += w.TuplesIn.Load()
		s.LateDropped += w.LateDropped.Load()
		s.EstimationFailures += w.EstimationFailures.Load()
		pooled = append(pooled, w.ProcTime.retained()...)
		procSum += w.ProcTime.Sum()
		procCount += int64(w.ProcTime.Count())
		memSum += float64(w.MemBytes.Peak())
	}
	if s.Workers > 0 {
		s.MeanMemBytes = memSum / float64(s.Workers)
	}
	if procCount > 0 {
		s.MeanProcTime = time.Duration(procSum / float64(procCount))
	}
	if len(pooled) > 0 {
		sort.Float64s(pooled)
		s.P95ProcTime = time.Duration(stats.PercentileOfSorted(pooled, 0.95))
	}
	return s
}

// String renders the summary as one log line.
func (s Summary) String() string {
	return fmt.Sprintf(
		"workers=%d windows=%d accel=%d (%.1f%%) mean=%v p95=%v mem=%.0fB tuples=%d late=%d estfail=%d",
		s.Workers, s.Windows, s.Accelerated,
		100*float64(s.Accelerated)/float64(max(s.Windows, 1)),
		s.MeanProcTime, s.P95ProcTime, s.MeanMemBytes, s.TuplesIn,
		s.LateDropped, s.EstimationFailures)
}
