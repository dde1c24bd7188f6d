// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§5). Each experiment builds the
// corresponding continuous queries, runs them through the engine on the
// synthetic datasets, and prints rows mirroring what the paper reports.
package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"spear"
	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/dataset"
	"spear/internal/obs"
	"spear/internal/spe"
	"spear/internal/storage"
)

// Paper parameters (§5): ε=10%, α=95%; budgets per dataset. The paper
// sets the DEC median budget to 150 tuples; our quantile accuracy test
// is the explicit Hoeffding bound n ≥ ln(2/δ)/(2ε²) = 185, so the
// harness uses 200 (still 0.43% of the 47K-tuple average window) — see
// EXPERIMENTS.md.
const (
	epsilon    = 0.10
	confidence = 0.95

	decMeanBudget   = 1000
	decMedianBudget = 200
	gcmBudget       = 4000
	debsBudget      = 2000

	paperWorkers = 4 // "up to four worker threads per CQ" (§5.2)
)

// Experiments maps experiment ids to their implementations.
var Experiments = map[string]func(Options) ([]*Table, error){
	"table1":   Table1,
	"fig6":     Fig6,
	"fig7":     Fig7,
	"fig8a":    Fig8a,
	"fig8b":    Fig8b,
	"fig8c":    Fig8c,
	"fig8d":    Fig8d,
	"table2":   Table2,
	"fig9":     Fig9,
	"fig10":    Fig10,
	"fig11":    Fig11,
	"fig12":    Fig12,
	"adaptive": Adaptive,
}

// ExperimentIDs returns all experiment ids in presentation order.
func ExperimentIDs() []string {
	return []string{"table1", "fig6", "fig7", "fig8a", "fig8b", "fig8c",
		"fig8d", "table2", "fig9", "fig10", "fig11", "fig12", "adaptive"}
}

// ---- dataset-specific query builders ----

func decStream(opt Options) *dataset.Stream {
	return dataset.DEC(dataset.DECConfig{Tuples: opt.tuples(dataset.PaperTuples("DEC")), Seed: opt.Seed})
}

func gcmStream(opt Options, winSize, winSlide time.Duration) *dataset.Stream {
	return dataset.GCM(dataset.GCMConfig{
		Tuples: opt.tuples(dataset.PaperTuples("GCM")), Seed: opt.Seed,
		WindowSize: winSize, WindowSlide: winSlide,
	})
}

func debsStream(opt Options) *dataset.Stream {
	return dataset.DEBS(dataset.DEBSConfig{Tuples: opt.tuples(dataset.PaperTuples("DEBS")), Seed: opt.Seed})
}

// decQuery builds the DEC scalar CQ (mean or median TCP packet size).
func decQuery(opt Options, median bool, backend spear.Backend, budget, par int, disableInc bool) *spear.Query {
	ds := decStream(opt)
	q := spear.NewQuery("dec").
		Source(spear.FromFunc(ds.Next)).
		SlidingWindow(45*time.Second, 15*time.Second).
		Error(epsilon, confidence).
		BudgetTuples(budget).
		Parallelism(par).
		Seed(opt.Seed).
		WithBackend(backend)
	if median {
		q.Median(ds.Value)
	} else {
		q.Mean(ds.Value)
	}
	if disableInc {
		q.DisableIncremental()
	}
	return q
}

// gcmQuery builds the GCM grouped mean-CPU-per-class CQ.
func gcmQuery(opt Options, backend spear.Backend, winSize, winSlide time.Duration, par int) *spear.Query {
	if winSize == 0 {
		winSize = 60 * time.Minute
	}
	if winSlide == 0 {
		winSlide = 30 * time.Minute
	}
	ds := gcmStream(opt, winSize, winSlide)
	return spear.NewQuery("gcm").
		Source(spear.FromFunc(ds.Next)).
		SlidingWindow(winSize, winSlide).
		GroupBy(ds.Key).
		KnownGroups(dataset.SchedClasses).
		Mean(ds.Value).
		Error(epsilon, confidence).
		BudgetTuples(gcmBudget).
		Parallelism(par).
		Seed(opt.Seed).
		WithBackend(backend)
}

// debsQuery builds the DEBS grouped average-fare-per-route CQ.
func debsQuery(opt Options, backend spear.Backend, par int) *spear.Query {
	ds := debsStream(opt)
	return spear.NewQuery("debs").
		Source(spear.FromFunc(ds.Next)).
		SlidingWindow(30*time.Minute, 15*time.Minute).
		GroupBy(ds.Key).
		Mean(ds.Value).
		Error(epsilon, confidence).
		BudgetTuples(debsBudget).
		Parallelism(par).
		Seed(opt.Seed).
		WithBackend(backend)
}

// ---- experiments ----

// Table1 reports the datasets-and-queries summary, measured on the
// generated streams at the current scale.
func Table1(opt Options) ([]*Table, error) {
	t := &Table{
		Title:  "Table 1: Datasets and Queries Used (measured at scale)",
		Header: []string{"dataset", "tuples", "win size", "win slide", "avg win size", "paper avg win"},
	}
	for _, row := range dataset.Table1() {
		var ds *dataset.Stream
		switch row.Name {
		case "DEC":
			ds = decStream(opt)
		case "GCM":
			ds = gcmStream(opt, 0, 0)
		case "DEBS":
			ds = debsStream(opt)
		}
		n := 0
		var first, last int64
		for {
			tp, ok := ds.Next()
			if !ok {
				break
			}
			if n == 0 {
				first = tp.Ts
			}
			last = tp.Ts
			n++
		}
		span := last - first
		avgWin := 0
		if span > 0 {
			avgWin = int(float64(n) * float64(ds.Window.Range) / float64(span))
		}
		t.Rows = append(t.Rows, []string{
			row.Name, fmt.Sprint(n),
			row.WinSize.String(), row.WinSlide.String(),
			fmt.Sprint(avgWin), fmt.Sprint(row.AvgWinSize),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("streams scaled by %.2fx of the paper's totals", opt.Scale))
	return []*Table{t}, nil
}

// Fig6 measures scalability: mean and 95th-percentile window processing
// time of the DEC median CQ for 1/2/4/6/8 workers ("nodes"), exact
// engine vs SPEAr.
func Fig6(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Fig 6: Processing time on Median CQ for DEC (vs. nodes)",
		Header: []string{"nodes", "Storm mean(ms)", "SPEAr mean(ms)", "speedup",
			"Storm p95(ms)", "SPEAr p95(ms)", "p95 speedup"},
	}
	for _, nodes := range []int{1, 2, 4, 6, 8} {
		storm, err := runQuery("storm", decQuery(opt, true, spear.BackendExact, decMedianBudget, nodes, false))
		if err != nil {
			return nil, err
		}
		spr, err := runQuery("spear", decQuery(opt, true, spear.BackendSPEAr, decMedianBudget, nodes, false))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nodes),
			ms(storm.sum.MeanProcTime), ms(spr.sum.MeanProcTime),
			speedup(storm.sum.MeanProcTime, spr.sum.MeanProcTime),
			ms(storm.sum.P95ProcTime), ms(spr.sum.P95ProcTime),
			speedup(storm.sum.P95ProcTime, spr.sum.P95ProcTime),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: SPEAr up to 2 orders faster (mean), ≥1 order (p95); budget b=200 tuples",
	)
	return []*Table{t}, nil
}

// Fig7 measures mean per-worker memory for the DEC mean and median CQs.
func Fig7(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Fig 7: Mean memory usage per worker on DEC (KB)",
		Header: []string{"nodes", "Storm(KB)", "SPEAr-mean(KB)", "SPEAr-median(KB)",
			"Storm/SPEAr-median"},
	}
	for _, nodes := range []int{1, 2, 4, 6, 8} {
		storm, err := runQuery("storm", decQuery(opt, true, spear.BackendExact, decMedianBudget, nodes, false))
		if err != nil {
			return nil, err
		}
		// The paper's SPEAr-mean disables nothing: the mean is served
		// incrementally but the budget is still b=1000.
		sprMean, err := runQuery("spear-mean", decQuery(opt, false, spear.BackendSPEAr, decMeanBudget, nodes, true))
		if err != nil {
			return nil, err
		}
		sprMed, err := runQuery("spear-median", decQuery(opt, true, spear.BackendSPEAr, decMedianBudget, nodes, false))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nodes),
			kb(storm.sum.MeanMemBytes),
			kb(sprMean.sum.MeanMemBytes),
			kb(sprMed.sum.MeanMemBytes),
			fmt.Sprintf("%.1fx", storm.sum.MeanMemBytes/max(sprMed.sum.MeanMemBytes, 1)),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: SPEAr memory ≈ constant (the budget); Storm ∝ window tuples; up to 2 orders less",
	)
	return []*Table{t}, nil
}

// Fig8a compares Storm, Inc-Storm, and SPEAr on the DEC mean CQ.
func Fig8a(opt Options) ([]*Table, error) {
	storm, err := runQuery("storm", decQuery(opt, false, spear.BackendExact, decMeanBudget, paperWorkers, false))
	if err != nil {
		return nil, err
	}
	inc, err := runQuery("inc-storm", decQuery(opt, false, spear.BackendIncremental, decMeanBudget, paperWorkers, false))
	if err != nil {
		return nil, err
	}
	spr, err := runQuery("spear", decQuery(opt, false, spear.BackendSPEAr, decMeanBudget, paperWorkers, false))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 8a: DEC (Mean) window processing time",
		Header: []string{"engine", "mean(ms)", "p95(ms)", "vs Storm"},
		Rows: [][]string{
			{"Storm", ms(storm.sum.MeanProcTime), ms(storm.sum.P95ProcTime), "1x"},
			{"Inc-Storm", ms(inc.sum.MeanProcTime), ms(inc.sum.P95ProcTime),
				speedup(storm.sum.MeanProcTime, inc.sum.MeanProcTime)},
			{"SPEAr", ms(spr.sum.MeanProcTime), ms(spr.sum.P95ProcTime),
				speedup(storm.sum.MeanProcTime, spr.sum.MeanProcTime)},
		},
		Notes: []string{
			"paper shape: Inc-Storm ≈ SPEAr, both ~3 orders faster than Storm; SPEAr within ~11% of Inc-Storm",
		},
	}
	return []*Table{t}, nil
}

// Fig8b compares Storm and SPEAr on the DEC median CQ.
func Fig8b(opt Options) ([]*Table, error) {
	storm, err := runQuery("storm", decQuery(opt, true, spear.BackendExact, decMedianBudget, paperWorkers, false))
	if err != nil {
		return nil, err
	}
	spr, err := runQuery("spear", decQuery(opt, true, spear.BackendSPEAr, decMedianBudget, paperWorkers, false))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 8b: DEC (Median) window processing time",
		Header: []string{"engine", "mean(ms)", "p95(ms)", "vs Storm"},
		Rows: [][]string{
			{"Storm", ms(storm.sum.MeanProcTime), ms(storm.sum.P95ProcTime), "1x"},
			{"SPEAr", ms(spr.sum.MeanProcTime), ms(spr.sum.P95ProcTime),
				speedup(storm.sum.MeanProcTime, spr.sum.MeanProcTime)},
		},
		Notes: []string{"paper shape: SPEAr ~1 order of magnitude faster"},
	}
	return []*Table{t}, nil
}

// Fig8c compares Storm and SPEAr on the GCM grouped mean CQ (known
// group count → sampling at tuple arrival).
func Fig8c(opt Options) ([]*Table, error) {
	storm, err := runQuery("storm", gcmQuery(opt, spear.BackendExact, 0, 0, paperWorkers))
	if err != nil {
		return nil, err
	}
	spr, err := runQuery("spear", gcmQuery(opt, spear.BackendSPEAr, 0, 0, paperWorkers))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 8c: GCM (grouped mean CPU per class) window processing time",
		Header: []string{"engine", "mean(ms)", "p95(ms)", "vs Storm", "accel%"},
		Rows: [][]string{
			{"Storm", ms(storm.sum.MeanProcTime), ms(storm.sum.P95ProcTime), "1x", "-"},
			{"SPEAr", ms(spr.sum.MeanProcTime), ms(spr.sum.P95ProcTime),
				speedup(storm.sum.MeanProcTime, spr.sum.MeanProcTime),
				fmt.Sprintf("%.0f%%", 100*sampledShare(spr))},
		},
		Notes: []string{
			"paper shape: >1 order faster; the gap is wider because the group count is known (no scan)",
		},
	}
	return []*Table{t}, nil
}

// Fig8d compares Storm and SPEAr on the DEBS grouped mean CQ (sparse
// routes, unknown group count, b = 2000 ≈ 20% of the window).
func Fig8d(opt Options) ([]*Table, error) {
	storm, err := runQuery("storm", debsQuery(opt, spear.BackendExact, paperWorkers))
	if err != nil {
		return nil, err
	}
	spr, err := runQuery("spear", debsQuery(opt, spear.BackendSPEAr, paperWorkers))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 8d: DEBS (grouped avg fare per route) window processing time",
		Header: []string{"engine", "mean(ms)", "p95(ms)", "vs Storm", "accel%"},
		Rows: [][]string{
			{"Storm", ms(storm.sum.MeanProcTime), ms(storm.sum.P95ProcTime), "1x", "-"},
			{"SPEAr", ms(spr.sum.MeanProcTime), ms(spr.sum.P95ProcTime),
				speedup(storm.sum.MeanProcTime, spr.sum.MeanProcTime),
				fmt.Sprintf("%.0f%%", 100*sampledShare(spr))},
		},
		Notes: []string{
			"paper shape: 7.77x (mean) / 13x (p95) faster; ≥98% of windows accelerated",
		},
	}
	return []*Table{t}, nil
}

// runCountMin executes a grouped CQ with the CountMin baseline through
// the raw engine (the public builder intentionally has no sketch mode).
func runCountMin(label string, ds *dataset.Stream, par int, seed int64) (*runOut, error) {
	reg := obs.NewInstruments()
	spec := ds.Window
	factory := func(wi int) (core.Manager, error) {
		return core.NewCountMinManager(core.Config{
			Spec: spec, Agg: agg.Func{Op: agg.Mean}, Value: ds.Value, KeyBy: ds.Key,
			Epsilon: epsilon, Confidence: confidence, BudgetTuples: 1,
			Store: storage.NewMemStore(), Metrics: reg.Worker(fmt.Sprintf("cm[%d]", wi)),
		})
	}
	out := &runOut{results: make(map[resKey]spear.Result)}
	runtime.GC()
	debug.FreeOSMemory()
	tp := spe.NewTopology(spe.Config{WatermarkPeriod: spec.Slide}).
		SetSpout(spe.FuncSpout(ds.Next)).
		SetWindowed(label, par, ds.Key, factory).
		SetSink(func(worker int, r core.Result) {
			out.results[resKey{worker, r.WindowID}] = r
		})
	if err := tp.Run(); err != nil {
		return nil, err
	}
	out.sum = reg.Summarize()
	return out, nil
}

// Table2 compares SPEAr against the CountMin-sketch baseline on GCM and
// DEBS.
func Table2(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Table 2: Proc. time (ms): SPEAr vs Storm/CountMin",
		Header: []string{"dataset", "SPEAr mean", "CountMin mean", "SPEAr p95",
			"CountMin p95", "mean speedup"},
	}
	// GCM.
	sprG, err := runQuery("spear", gcmQuery(opt, spear.BackendSPEAr, 0, 0, paperWorkers))
	if err != nil {
		return nil, err
	}
	cmG, err := runCountMin("countmin-gcm", gcmStream(opt, 0, 0), paperWorkers, opt.Seed)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"GCM", ms(sprG.sum.MeanProcTime), ms(cmG.sum.MeanProcTime),
		ms(sprG.sum.P95ProcTime), ms(cmG.sum.P95ProcTime),
		speedup(cmG.sum.MeanProcTime, sprG.sum.MeanProcTime),
	})
	// DEBS.
	sprD, err := runQuery("spear", debsQuery(opt, spear.BackendSPEAr, paperWorkers))
	if err != nil {
		return nil, err
	}
	cmD, err := runCountMin("countmin-debs", debsStream(opt), paperWorkers, opt.Seed)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"DEBS", ms(sprD.sum.MeanProcTime), ms(cmD.sum.MeanProcTime),
		ms(sprD.sum.P95ProcTime), ms(cmD.sum.P95ProcTime),
		speedup(cmD.sum.MeanProcTime, sprD.sum.MeanProcTime),
	})
	t.Notes = append(t.Notes,
		"paper shape: SPEAr ≥ ~10x faster than CountMin on both datasets (hash cost per tuple)",
	)
	return []*Table{t}, nil
}

// Fig9 measures end-to-end (total) processing time of the DEC median CQ
// with count-based windows of growing range.
func Fig9(opt Options) ([]*Table, error) {
	t := &Table{
		Title:  "Fig 9: End-to-end processing time, DEC median, count-based windows",
		Header: []string{"window(Ktuples)", "Storm total(ms)", "SPEAr total(ms)", "speedup"},
	}
	for _, rangeK := range []int{2500, 5000, 10000, 20000, 47000} {
		mk := func(backend spear.Backend) *spear.Query {
			ds := decStream(opt)
			q := spear.NewQuery("dec-count").
				Source(spear.FromFunc(ds.Next)).
				CountSlidingWindow(int64(rangeK), int64(rangeK)).
				Median(ds.Value).
				Error(epsilon, confidence).
				BudgetTuples(decMedianBudget).
				Parallelism(1).
				Seed(opt.Seed).
				WithBackend(backend)
			return q
		}
		storm, err := runQuery("storm", mk(spear.BackendExact))
		if err != nil {
			return nil, err
		}
		spr, err := runQuery("spear", mk(spear.BackendSPEAr))
		if err != nil {
			return nil, err
		}
		stormTotal := time.Duration(float64(storm.sum.MeanProcTime) * float64(storm.sum.Windows))
		sprTotal := time.Duration(float64(spr.sum.MeanProcTime) * float64(spr.sum.Windows))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", float64(rangeK)/1000),
			ms(stormTotal), ms(sprTotal), speedup(stormTotal, sprTotal),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: Storm ≈ flat (same total data); SPEAr improves with window size; >1 order at 47K",
	)
	return []*Table{t}, nil
}

// Fig10 measures sensitivity to window size on GCM: 900/1800/3600s
// windows with a fixed b = 4000.
func Fig10(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Fig 10: GCM processing time with varying window sizes (b=4000)",
		Header: []string{"window(s)", "Storm mean(ms)", "SPEAr mean(ms)", "Storm p95(ms)",
			"SPEAr p95(ms)", "SPEAr accel%", "speedup"},
	}
	for _, winSec := range []int{900, 1800, 3600} {
		size := time.Duration(winSec) * time.Second
		slide := size / 2
		storm, err := runQuery("storm", gcmQuery(opt, spear.BackendExact, size, slide, paperWorkers))
		if err != nil {
			return nil, err
		}
		spr, err := runQuery("spear", gcmQuery(opt, spear.BackendSPEAr, size, slide, paperWorkers))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(winSec),
			ms(storm.sum.MeanProcTime), ms(spr.sum.MeanProcTime),
			ms(storm.sum.P95ProcTime), ms(spr.sum.P95ProcTime),
			fmt.Sprintf("%.0f%%", 100*sampledShare(spr)),
			speedup(storm.sum.MeanProcTime, spr.sum.MeanProcTime),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: acceleration fraction grows with window size (68% → 88% → 100%); speedup grows from ~2x to >10x",
	)
	return []*Table{t}, nil
}

// Fig11 measures SPEAr's realized per-window error on the DEC mean CQ
// (no incremental optimization) for budgets 250/500/1000, against the
// exact per-window results.
func Fig11(opt Options) ([]*Table, error) {
	exact, err := runQuery("exact", decQuery(opt, false, spear.BackendExact, decMeanBudget, 1, false))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig 11: Relative error per window on DEC mean (ε=10%, α=95%)",
		Header: []string{"budget", "windows", "accelerated", "accel%", "violations(>10%)",
			"mean err%", "max err%"},
	}
	series := &Table{
		Title:  "Fig 11 (series): per-window relative error %, first 40 windows",
		Header: []string{"budget", "errors (0 = exact processing)"},
	}
	for _, b := range []int{250, 500, 1000} {
		spr, err := runQuery("spear", decQuery(opt, false, spear.BackendSPEAr, b, 1, true))
		if err != nil {
			return nil, err
		}
		errs, viol := accuracy(spr, exact)
		accel := 0
		// Only accelerated windows can err; recompute errors with
		// exact windows pinned to zero for the violation count, as
		// the figure does ("an error of 0 indicates that SPEAr
		// performs normal processing").
		keys := make([]resKey, 0, len(spr.results))
		for k := range spr.results {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].id < keys[j].id })
		var serr []string
		maxErr := 0.0
		for i, k := range keys {
			r := spr.results[k]
			e := 0.0
			if r.Mode != core.ModeExact {
				accel++
				if ex, ok := exact.results[k]; ok {
					e = relErr(r.Scalar, ex.Scalar)
				}
			}
			if e > maxErr {
				maxErr = e
			}
			if i < 40 {
				serr = append(serr, fmt.Sprintf("%.1f", 100*e))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(b), fmt.Sprint(len(keys)), fmt.Sprint(accel),
			fmt.Sprintf("%.1f%%", 100*float64(accel)/max(float64(len(keys)), 1)),
			fmt.Sprint(viol(epsilon)),
			fmt.Sprintf("%.2f", 100*meanErr(errs)),
			fmt.Sprintf("%.2f", 100*maxErr),
		})
		series.Rows = append(series.Rows, []string{fmt.Sprint(b), strings.Join(serr, " ")})
	}
	t.Notes = append(t.Notes,
		"paper shape: b=250 rarely accelerates (39.9%); b=500 accelerates all with ~23 violations; b=1000 ≤2 violations",
	)
	return []*Table{t, series}, nil
}

// Fig12 measures DEC mean processing time (no incremental optimization)
// for Storm and SPEAr budgets 250/500/1000: the failed-check overhead at
// b=250 makes SPEAr slower than Storm.
func Fig12(opt Options) ([]*Table, error) {
	t := &Table{
		Title:  "Fig 12: DEC processing time with varying budget (mean CQ, no incremental)",
		Header: []string{"engine", "mean(ms)", "p95(ms)", "vs Storm"},
	}
	storm, err := runQuery("storm", decQuery(opt, false, spear.BackendExact, decMeanBudget, 1, false))
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"Storm", ms(storm.sum.MeanProcTime), ms(storm.sum.P95ProcTime), "1x"})
	for _, b := range []int{250, 500, 1000} {
		spr, err := runQuery("spear", decQuery(opt, false, spear.BackendSPEAr, b, 1, true))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("SPEAr-%d", b),
			ms(spr.sum.MeanProcTime), ms(spr.sum.P95ProcTime),
			speedup(storm.sum.MeanProcTime, spr.sum.MeanProcTime),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: SPEAr-250 slower than Storm (failed checks force exact fallback through S); SPEAr-500/1k ≈2 orders faster",
	)
	return []*Table{t}, nil
}
