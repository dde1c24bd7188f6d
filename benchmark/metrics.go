package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"spear/benchmark/span"
)

// metric is one reported number. A nil Value is a layer metric whose
// probe no longer builds or runs; the note on the result says which.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

func val(v float64, unit string) metric { return metric{Value: &v, Unit: unit} }

// endToEnd is what the timed run reports, in BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"tuples_per_s", "tuples/s"},
	{"cpu_ns_per_tuple", "ns"},
	{"live_heap_peak_mb", "MB"},
}

// The share of -seconds each timed phase gets.
const (
	satShare   = 0.8
	pacedShare = 0.2
	// setupsPerRound set-ups are timed ahead of every round, so that
	// they sample the host over the whole run and not its first seconds.
	setupsPerRound = 2
	// tracedShare is the size of every traced-mode pass relative to the
	// timed saturated phase.
	tracedShare = 0.1
)

// workloadResult is one workload's run, timed or traced: the metrics
// the contract names plus the diagnostics that say how far to trust
// them.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Mode      string            `json:"mode"` // "timed" or "traced"
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Checksum  string            `json:"input_checksum"`
	Attempted int               `json:"windows_expected"`
	Failed    int               `json:"windows_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Diagnostics are reported, never bounded: sample counts, the
	// generator's own lateness, tail percentiles too thin to gate on.
	Diagnostics map[string]float64 `json:"diagnostics"`
	Notes       []string           `json:"notes,omitempty"`
	// Layers is the traced run's spans folded by name: count, total and
	// self time.
	Layers map[string]span.Total `json:"layers,omitempty"`
	// The saturated phases' progress curve, slice by slice in run order:
	// a host that changed state part-way shows here as a step.
	SliceRates []float64 `json:"slice_tuples_per_s,omitempty"`
	SliceCPU   []float64 `json:"slice_cpu_ns_per_tuple,omitempty"`
}

func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s (%s)  seed %d  input checksum %s  windows %d expected, %d failed\n",
		r.Workload, r.Mode, r.Seed, r.Checksum, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note %s\n", n)
	}
	printSorted := func(title string, names []string, line func(string) string) {
		sort.Strings(names)
		fmt.Fprintf(w, "  %s\n", title)
		for _, n := range names {
			fmt.Fprintf(w, "    %-40s %s\n", n, line(n))
		}
	}
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	printSorted("metrics", names, func(n string) string {
		m := r.Metrics[n]
		if m.Value == nil {
			return "null " + m.Unit
		}
		return fmt.Sprintf("%.6g %s", *m.Value, m.Unit)
	})
	names = names[:0]
	for n := range r.Diagnostics {
		names = append(names, n)
	}
	printSorted("diagnostics", names, func(n string) string { return fmt.Sprintf("%.6g", r.Diagnostics[n]) })
}

func (w *workload) newResult(o options, mode string, p *prepared) *workloadResult {
	return &workloadResult{
		Workload: w.name, Mode: mode, Seed: o.seed, Seconds: o.seconds,
		Checksum:    fmt.Sprintf("%016x", p.block.Checksum),
		Metrics:     map[string]metric{},
		Diagnostics: map[string]float64{"input_block_tuples": float64(len(p.block.Tuples))},
	}
}

func (r *workloadResult) absorb(phase string, run *runResult) {
	r.Attempted += run.expected
	r.Failed += run.failed
	for _, f := range run.chk.failures {
		r.Failures = append(r.Failures, phase+": "+f)
	}
	r.Diagnostics[phase+"_tuples"] += float64(run.tuples)
	r.Diagnostics[phase+"_windows"] += float64(run.expected)
	r.Diagnostics[phase+"_wall_s"] += run.wall.Seconds()
}

func (r *workloadResult) save(o options) error {
	return span.WriteFile(filepath.Join(o.out, fmt.Sprintf("result.%s.%s.json", r.Workload, r.Mode)), r)
}

// timed is the untraced run: rounds of set-ups, a saturated phase and a
// paced phase, and the end-to-end metrics.
func (w *workload) timed(o options) (*workloadResult, error) {
	var (
		p      *prepared
		res    *workloadResult
		m      measured
		setups []float64
	)
	for r := 0; r < rounds; r++ {
		for i := 0; i < setupsPerRound; i++ {
			t0 := time.Now()
			var err error
			if p, err = w.prepare(o.seed, o.scale); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		if res == nil {
			res = w.newResult(o, "timed", p)
		}
		sat, err := p.run(runOpts{cycles: p.cycles(w.satRate * o.seconds * satShare / rounds), procs: w.procs})
		if err != nil {
			return nil, err
		}
		res.absorb("saturated", sat)
		m.addSaturated(sat, p)
		paced, err := p.run(runOpts{cycles: p.cycles(w.pacedRate * o.seconds * pacedShare / rounds), rate: w.pacedRate})
		if err != nil {
			return nil, err
		}
		res.absorb("paced", paced)
		m.addPaced(paced)
	}
	res.SliceRates = append(res.SliceRates, m.sliceRates...)
	res.SliceCPU = append(res.SliceCPU, m.sliceCPU...)
	// The quiet-host estimators: see README, "What the two timings
	// estimate".
	rate := slices.Max(m.sliceRates)
	res.Metrics["setup_s"] = val(median(setups), "s")
	res.Metrics["tuples_per_s"] = val(rate, "tuples/s")
	res.Metrics["cpu_ns_per_tuple"] = val(slices.Min(m.sliceCPU), "ns")
	res.Metrics["live_heap_peak_mb"] = val(float64(m.heapPeak)/(1<<20), "MB")
	quiet := 0
	for _, r := range m.sliceRates {
		if r >= 0.9*rate {
			quiet++
		}
	}
	res.Diagnostics["quiet_slice_frac"] = frac(float64(quiet), float64(len(m.sliceRates)))
	res.Diagnostics["saturated_slices"] = float64(len(m.sliceRates))
	res.Diagnostics["saturated_gomaxprocs"] = float64(w.procs)
	res.Diagnostics["tuples_per_s_median_slice"] = median(m.sliceRates)
	res.Diagnostics["tuples_per_s_whole_phase"] = frac(float64(m.satTuples), m.satWall.Seconds())
	res.Diagnostics["cpu_ns_per_tuple_median_slice"] = median(m.sliceCPU)
	res.Diagnostics["live_heap_over_setup_mb"] = float64(m.heapOverBase) / (1 << 20)
	res.Diagnostics["accelerated_frac"] = frac(float64(m.accelerated), float64(m.results))
	res.Diagnostics["contract_coverage"] = 1 - frac(float64(m.violations), float64(m.sampled))
	res.Diagnostics["sampled_windows"] = float64(m.sampled)
	res.Diagnostics["contract_violations"] = float64(m.violations)
	// Window latency is reported and not bounded: see README, "Why
	// latency is a diagnostic".
	res.Diagnostics["latency_p50_ms"] = quantile(m.lats, 0.50)
	res.Diagnostics["latency_p95_ms"] = quantile(m.lats, 0.95)
	res.Diagnostics["latency_p99_ms"] = quantile(m.lats, 0.99)
	res.Diagnostics["latency_samples"] = float64(len(m.lats))
	res.Diagnostics["paced_rate_tuples_per_s"] = w.pacedRate
	res.Diagnostics["loadgen.lag_p99_ms"] = quantile(m.lags, 0.99)
	return res, res.save(o)
}

// The timed run alternates rounds short phases, so that every metric
// samples the whole run. Each saturated phase is read through a
// sliding slice of whole input cycles about sliceSeconds long — the
// same work wherever it sits, and long enough to hold two GC cycles or
// more on every workload.
// Throughput is the fastest slice's rate and CPU per tuple the
// cheapest slice's cost: the host only ever slows the program down, so
// the best stretch of the run is the program and the rest is the host.
const (
	rounds        = 4
	sliceSeconds  = 1.0
	warmupSeconds = 0.5
	// warmupShare of each paced phase's windows are not sampled: they
	// see goroutine start-up and, over TCP, the connection handshake.
	warmupShare = 0.1
)

// measured accumulates the slices of all rounds.
type measured struct {
	sliceRates []float64 // tuples/s per position of the sliding slice
	sliceCPU   []float64 // CPU ns/tuple per position of the sliding slice
	// heapPeak is the largest live heap any saturated phase reached;
	// heapOverBase is the largest rise over the phase's own start.
	heapPeak, heapOverBase int64
	lats                   []float64 // every sampled window latency, ms

	lags                                      []float64
	satTuples                                 int64
	satWall                                   time.Duration
	results, accelerated, sampled, violations int64
}

func (m *measured) addSaturated(r *runResult, p *prepared) {
	marks, cpu := r.src.Marks, r.cpuMarks
	// A smoke-test pass shorter than a slice is one slice.
	k := min(p.cycles(p.w.satRate*sliceSeconds), len(marks)-1)
	// The first warmupSeconds' worth of a phase is not read: the
	// pipeline's windows, maps and queues start empty, and it runs
	// faster than any later stretch.
	first := k + p.cycles(p.w.satRate*warmupSeconds)
	if first >= len(marks) {
		first = k
	}
	n := float64(k * len(p.block.Tuples))
	for i := first; i < len(marks); i++ {
		m.sliceRates = append(m.sliceRates, n/(marks[i]-marks[i-k]).Seconds())
		m.sliceCPU = append(m.sliceCPU, float64(cpu[i]-cpu[i-k])/n)
	}
	m.heapPeak = max(m.heapPeak, r.heapPeak)
	m.heapOverBase = max(m.heapOverBase, r.heapPeak-r.heapBase)
	m.satTuples += r.tuples
	m.satWall += r.wall
	m.results += r.chk.results
	m.accelerated += r.chk.accelerated
	m.sampled += int64(r.chk.sampledWins)
	m.violations += int64(r.chk.violations)
}

func (m *measured) addPaced(r *runResult) {
	lats := r.chk.latencies(r.src.Due)
	m.lats = append(m.lats, lats[int(warmupShare*float64(len(lats))):]...)
	m.lags = append(m.lags, lagsMs(r)...)
}

// frac is a/b, or 0 when there is nothing to divide by.
func frac(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}

// lagsMs is how late the open-loop source ran against its own schedule
// at each pacing check, in milliseconds.
func lagsMs(run *runResult) []float64 {
	lags := make([]float64, len(run.src.LagMicros))
	for i, us := range run.src.LagMicros {
		lags[i] = float64(us) / 1e3
	}
	return lags
}
