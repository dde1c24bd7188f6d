package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"spear"
	"spear/internal/stats"
	"spear/internal/storage"
)

// Adaptive measures the adaptive accuracy controller against a fixed
// budget through a load spike. The stream runs in real time at a base
// rate, spikes to 8x for a burst phase, and returns to base; archive
// writes go through a LatencyStore whose per-write delay is calibrated
// so the burst saturates a worker that keeps archiving (the
// fixed-budget configuration backs up and blows through the latency
// SLO) while the base rate leaves comfortable headroom. The adaptive
// configuration runs the same query with a LatencySLO: under the burst
// the controller tightens the budget toward its floor and then sheds
// archive writes, so the pipeline keeps pace with the spike and window
// latencies recover inside the burst.
//
// Latency is measured per window against the nominal schedule: the
// sink's wall-clock arrival minus the wall time the window's closing
// tuple was scheduled to be generated. The generator paces against
// that schedule, so a backed-up queue that stalls the source counts as
// latency rather than hiding it (no coordinated omission).
//
// Three gates are checked in-run. Accuracy (every configuration, every
// repetition): each window's realized error against the exact per-
// window reference must be within its reported contract — ε for
// ContractMet results, the reported realized bound for shed results —
// for at least the confidence fraction of windows. Direction (best
// repetition): the adaptive run's overall p95 latency must beat the
// fixed run's. SLO (best repetition): the fixed run must miss the SLO
// at p95 over the burst windows while the adaptive run holds it at p95
// over the late-burst windows (the controller needs a few cooldown
// periods to escalate, so the early burst is its reaction time).
//
// With Options.BenchJSON set the rows are also written as JSON (make
// bench-adaptive checks in BENCH_adaptive.json at the repo root).
func Adaptive(opt Options) ([]*Table, error) {
	const (
		winMs     = 100                    // tumbling window, event == wall ms
		baseRate  = 10_000                 // tuples/s outside the burst
		burstRate = 80_000                 // tuples/s inside the burst
		warmS     = 2.0                    // seconds before the burst
		burstS    = 6.0                    // seconds of burst (the controller needs ~4 cooldown periods to escalate to shedding)
		coolS     = 2.0                    // seconds after the burst
		slo       = 150 * time.Millisecond // the latency target
		budget    = 256                    // fixed budget / adaptive ceiling
		budgetMin = 64                     // adaptive floor
		storePerW = 10 * time.Millisecond  // injected delay per archive chunk write
		reps      = 2
	)
	win := winMs * time.Millisecond

	// The schedule is precomputed: tuple i carries its nominal offset
	// from run start as the event timestamp, so event time and wall
	// time share a clock and the per-window exact reference is
	// computable upfront.
	type phase struct {
		secs float64
		rate int
	}
	r := rand.New(rand.NewSource(opt.Seed + 77))
	var in []spear.Tuple
	elapsed := 0.0
	for _, p := range []phase{{warmS, baseRate}, {burstS, burstRate}, {coolS, baseRate}} {
		n := int(p.secs * float64(p.rate))
		gap := 1.0 / float64(p.rate)
		for i := 0; i < n; i++ {
			ts := int64((elapsed + float64(i)*gap) * 1e9)
			v := 100 + 30*r.NormFloat64()
			in = append(in, spear.NewTuple(ts, spear.Float(v)))
		}
		elapsed += p.secs
	}
	totalWins := int(elapsed*1000) / winMs
	exact := make([]float64, totalWins)
	{
		sums := make([]float64, totalWins)
		counts := make([]float64, totalWins)
		for _, t := range in {
			w := int(t.Ts / int64(win))
			sums[w] += t.Vals[0].AsFloat()
			counts[w]++
		}
		for w := range exact {
			exact[w] = sums[w] / counts[w]
		}
	}
	burstLo, burstHi := int(warmS*1000)/winMs, int((warmS+burstS)*1000)/winMs
	lateLo := burstLo + (burstHi-burstLo)/2

	// pace emits the schedule in real time: tuple i is released once
	// the wall clock reaches start + ts(i). Backpressure can only make
	// it late, never early — exactly what the latency metric charges.
	pace := func(start *time.Time) spear.Source {
		i := 0
		return spear.FromFunc(func() (spear.Tuple, bool) {
			if i >= len(in) {
				return spear.Tuple{}, false
			}
			if i == 0 {
				*start = time.Now()
			}
			t := in[i]
			if wait := start.Add(time.Duration(t.Ts)).Sub(time.Now()); wait > 0 {
				time.Sleep(wait)
			}
			i++
			return t, true
		})
	}

	type winLat struct {
		res spear.Result
		lat time.Duration
	}
	type runStats struct {
		lats       []winLat
		shedTuples int64
		shedWins   int64
		endBudget  int64
		covered    int
		violations int
	}

	runOnce := func(label string, adaptive bool) (*runStats, error) {
		var start time.Time
		ins := spear.NewInstruments()
		mem := storage.NewMemStore()
		q := spear.NewQuery(label).
			Source(pace(&start)).
			TumblingWindow(win).
			Mean(func(t spear.Tuple) float64 { return t.Vals[0].AsFloat() }).
			Error(epsilon, confidence).
			BudgetTuples(budget).
			DisableIncremental().
			Seed(opt.Seed).
			SpillStore(storage.NewLatencyStore(mem, storePerW, nil)).
			ObserveWith(ins)
		if adaptive {
			q.LatencySLO(slo).AdaptiveBudget(budgetMin, budget)
		}
		st := &runStats{}
		var mu sync.Mutex
		runtime.GC()
		debug.FreeOSMemory()
		_, err := q.Run(func(_ int, res spear.Result) {
			now := time.Now()
			mu.Lock()
			st.lats = append(st.lats, winLat{res, now.Sub(start.Add(time.Duration(res.End)))})
			mu.Unlock()
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", label, err)
		}
		sort.Slice(st.lats, func(i, j int) bool { return st.lats[i].res.Start < st.lats[j].res.Start })
		for _, w := range ins.Snapshot(time.Now()).WorkerMetrics {
			st.shedTuples += w.TuplesShed
			st.shedWins += w.WindowsShed
			st.endBudget += w.BudgetTuples
		}
		// Accuracy gate: every window's realized error within its
		// reported contract, for at least the confidence fraction.
		for _, wl := range st.lats {
			w := int(wl.res.Start / int64(win))
			if w >= totalWins {
				continue
			}
			bound := epsilon
			if !wl.res.ContractMet() {
				bound = wl.res.EstError
			}
			if rel := stats.RelativeError(wl.res.Scalar, exact[w]); rel <= bound || math.IsInf(bound, 1) {
				st.covered++
			} else {
				st.violations++
			}
		}
		n := st.covered + st.violations
		if n == 0 || float64(st.covered)/float64(n) < confidence {
			return nil, fmt.Errorf("bench: %s: contract coverage %d/%d below confidence %v",
				label, st.covered, n, confidence)
		}
		return st, nil
	}

	p95 := func(lats []winLat, lo, hi int) time.Duration {
		var ds []time.Duration
		for _, wl := range lats {
			w := int(wl.res.Start / int64(win))
			if w >= lo && w < hi {
				ds = append(ds, wl.lat)
			}
		}
		if len(ds) == 0 {
			return 0
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[(len(ds)*95)/100]
	}
	sloMet := func(lats []winLat, lo, hi int) (met, total int) {
		for _, wl := range lats {
			w := int(wl.res.Start / int64(win))
			if w >= lo && w < hi {
				total++
				if wl.lat <= slo {
					met++
				}
			}
		}
		return met, total
	}

	type row struct {
		Config        string  `json:"config"`
		Rep           int     `json:"rep"`
		Windows       int     `json:"windows"`
		P95Ms         float64 `json:"p95_ms"`
		BurstP95Ms    float64 `json:"burst_p95_ms"`
		LateBurstP95  float64 `json:"late_burst_p95_ms"`
		BurstSLOMet   float64 `json:"burst_slo_met_frac"`
		Covered       int     `json:"contract_covered"`
		Violations    int     `json:"contract_violations"`
		TuplesShed    int64   `json:"tuples_shed"`
		WindowsShed   int64   `json:"windows_shed"`
		EndBudget     int64   `json:"end_budget"`
		SLOHeldInRun  bool    `json:"late_burst_slo_held"`
		SLOMissedInto bool    `json:"burst_slo_missed"`
	}

	mkRow := func(cfgName string, rep int, st *runStats) row {
		met, total := sloMet(st.lats, burstLo, burstHi)
		frac := 0.0
		if total > 0 {
			frac = float64(met) / float64(total)
		}
		return row{
			Config:        cfgName,
			Rep:           rep,
			Windows:       len(st.lats),
			P95Ms:         float64(p95(st.lats, 0, totalWins)) / 1e6,
			BurstP95Ms:    float64(p95(st.lats, burstLo, burstHi)) / 1e6,
			LateBurstP95:  float64(p95(st.lats, lateLo, burstHi)) / 1e6,
			BurstSLOMet:   frac,
			Covered:       st.covered,
			Violations:    st.violations,
			TuplesShed:    st.shedTuples,
			WindowsShed:   st.shedWins,
			EndBudget:     st.endBudget,
			SLOHeldInRun:  p95(st.lats, lateLo, burstHi) <= slo,
			SLOMissedInto: p95(st.lats, burstLo, burstHi) > slo,
		}
	}

	var rows []row
	best := map[string]*runStats{}
	for rep := 0; rep < reps; rep++ {
		for _, cfg := range []struct {
			name     string
			adaptive bool
		}{{"fixed-b", false}, {"adaptive-b", true}} {
			st, err := runOnce(fmt.Sprintf("%s-r%d", cfg.name, rep), cfg.adaptive)
			if err != nil {
				return nil, err
			}
			rows = append(rows, mkRow(cfg.name, rep, st))
			if b := best[cfg.name]; b == nil ||
				p95(st.lats, 0, totalWins) < p95(b.lats, 0, totalWins) {
				best[cfg.name] = st
			}
		}
	}

	fixed, adapt := best["fixed-b"], best["adaptive-b"]
	fixedP95 := p95(fixed.lats, 0, totalWins)
	adaptP95 := p95(adapt.lats, 0, totalWins)
	if adaptP95 >= fixedP95 {
		return nil, fmt.Errorf("bench: adaptive p95 %v not below fixed p95 %v", adaptP95, fixedP95)
	}
	if got := p95(fixed.lats, burstLo, burstHi); got <= slo {
		return nil, fmt.Errorf("bench: fixed-b held the SLO through the burst (p95 %v ≤ %v); the spike is not saturating", got, slo)
	}
	if got := p95(adapt.lats, lateLo, burstHi); got > slo {
		return nil, fmt.Errorf("bench: adaptive-b missed the SLO over the late burst (p95 %v > %v)", got, slo)
	}
	if adapt.shedTuples == 0 {
		return nil, fmt.Errorf("bench: adaptive-b never shed; the burst did not engage the controller")
	}

	t := &Table{
		Title: "Adaptive: latency under a load spike, fixed budget vs adaptive controller (SLO 150ms)",
		Header: []string{"config", "rep", "p95(ms)", "burst p95(ms)", "late-burst p95(ms)",
			"burst SLO met", "coverage", "tuples shed"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Config, fmt.Sprint(r.Rep),
			fmt.Sprintf("%.1f", r.P95Ms),
			fmt.Sprintf("%.1f", r.BurstP95Ms),
			fmt.Sprintf("%.1f", r.LateBurstP95),
			fmt.Sprintf("%.0f%%", 100*r.BurstSLOMet),
			fmt.Sprintf("%d/%d", r.Covered, r.Covered+r.Violations),
			fmt.Sprint(r.TuplesShed),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("stream: %.0fs @%d/s, %.0fs burst @%d/s, %.0fs @%d/s; %dms windows; archive writes +%v each",
			warmS, baseRate, burstS, burstRate, coolS, baseRate, winMs, storePerW),
		"acceptance: adaptive p95 < fixed p95; fixed misses SLO at burst p95; adaptive holds SLO at late-burst p95; realized error within the reported contract at ≥ confidence, every rep",
	)

	if opt.BenchJSON != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment string  `json:"experiment"`
			SLOMs      float64 `json:"slo_ms"`
			Budget     int     `json:"budget"`
			BudgetMin  int     `json:"budget_min"`
			Rows       []row   `json:"rows"`
		}{"adaptive", float64(slo) / 1e6, budget, budgetMin, rows}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(opt.BenchJSON, append(blob, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("writing %s: %w", opt.BenchJSON, err)
		}
		t.Notes = append(t.Notes, "json written to "+opt.BenchJSON)
	}
	return []*Table{t}, nil
}
