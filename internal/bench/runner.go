package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"spear"
	"spear/internal/window"
)

// Options scales and seeds an experiment run.
type Options struct {
	// Scale multiplies the paper's stream lengths (1.0 = the full
	// Table 1 datasets). The default CLI scale is 0.2.
	Scale float64
	// Seed drives dataset generation and sampling.
	Seed int64
	// BenchJSON, when non-empty, is a path where the "adaptive"
	// experiment also writes its rows as JSON.
	BenchJSON string
}

func (o Options) tuples(paperTotal int) int {
	n := int(float64(paperTotal) * o.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Table is one printable result block: a title, column headers, rows,
// and free-form notes (paper-vs-measured commentary).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// resKey identifies one window result within a run.
type resKey struct {
	worker int
	id     window.ID
}

// runOut captures everything one engine run produced.
type runOut struct {
	sum     spear.Summary
	results map[resKey]spear.Result
}

// runQuery executes q to completion, collecting all results. A full GC
// precedes the run so earlier experiments' garbage cannot bleed pause
// time into this one's window timings — the equivalent of the paper
// running each configuration on a fresh deployment.
func runQuery(label string, q *spear.Query) (*runOut, error) {
	out := &runOut{results: make(map[resKey]spear.Result)}
	var mu sync.Mutex
	runtime.GC()
	debug.FreeOSMemory()
	sum, err := q.Run(func(worker int, r spear.Result) {
		mu.Lock()
		out.results[resKey{worker, r.WindowID}] = r
		mu.Unlock()
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", label, err)
	}
	out.sum = sum
	return out, nil
}

// leg is one labelled engine of a comparison.
type leg struct {
	label string
	run   func() (*runOut, error)
}

// engine is the leg that runs q through the public builder.
func engine(label string, q *spear.Query) leg {
	return leg{label, func() (*runOut, error) { return runQuery(label, q) }}
}

// stormAndSPEAr is the two legs of a figure that runs one CQ, q, on the
// Storm baseline and then on SPEAr.
func stormAndSPEAr(q func(spear.Backend) *spear.Query) []leg {
	return []leg{engine("Storm", q(spear.BackendExact)), engine("SPEAr", q(spear.BackendSPEAr))}
}

// compare runs legs in order and returns their summaries. Every
// baseline comparison of the evaluation runs through it.
func compare(legs ...leg) ([]spear.Summary, error) {
	sums := make([]spear.Summary, len(legs))
	for i, l := range legs {
		out, err := l.run()
		if err != nil {
			return nil, err
		}
		sums[i] = out.sum
	}
	return sums, nil
}

// timingTable is a figure of window processing time against Storm: it
// compares legs, Storm first, and renders one row an engine with its
// mean and p95 window time and its mean speedup over Storm, and with
// accel the share of its windows answered from the sample.
func timingTable(title, note string, accel bool, legs ...leg) ([]*Table, error) {
	sums, err := compare(legs...)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, Header: []string{"engine", "mean(ms)", "p95(ms)", "vs Storm"}, Notes: []string{note}}
	if accel {
		t.Header = append(t.Header, "accel%")
	}
	storm := sums[0].MeanProcTime
	for i, s := range sums {
		vs, share := speedup(storm, s.MeanProcTime), accelPct(s)
		if i == 0 {
			vs, share = "1x", "-"
		}
		row := []string{legs[i].label, ms(s.MeanProcTime), ms(s.P95ProcTime), vs}
		if accel {
			row = append(row, share)
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// accelPct renders the share of a run's windows answered from the
// sample (or incrementally) as a whole percentage.
func accelPct(s spear.Summary) string {
	return fmt.Sprintf("%.0f%%", 100*float64(s.Accelerated)/float64(max(s.Windows, 1)))
}

// ms renders nanoseconds as milliseconds with sensible precision.
func ms(d time.Duration) string {
	v := float64(d) / 1e6
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// kb renders bytes as kilobytes.
func kb(b float64) string { return fmt.Sprintf("%.1f", b/1024) }

// speedup renders a ratio like "13.2x".
func speedup(base, fast time.Duration) string {
	if fast <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(fast))
}

// accuracy compares an approximate run against an exact reference run
// over the windows both produced, returning per-window relative errors
// in window order. Grouped results are compared with the L1 metric
// (mean per-group relative error); missing groups count as error 1.
func accuracy(approx, exact *runOut) (errs []float64, violations func(eps float64) int) {
	keys := make([]resKey, 0, len(approx.results))
	for k := range approx.results {
		if _, ok := exact.results[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].worker != keys[j].worker {
			return keys[i].worker < keys[j].worker
		}
		return keys[i].id < keys[j].id
	})
	for _, k := range keys {
		a, e := approx.results[k], exact.results[k]
		errs = append(errs, ResultError(a, e))
	}
	return errs, func(eps float64) int {
		n := 0
		for _, v := range errs {
			if v > eps {
				n++
			}
		}
		return n
	}
}

// ResultError is the realized error of one window: relative error for
// scalars, L1-aggregated per-group relative error for grouped results. A
// group the estimate lacks counts 1, and so does a value whose exact
// answer is 0 unless the estimate is 0 too (relErr). The experiments and
// spear-demo's per-window table both report it.
func ResultError(approx, exact spear.Result) float64 {
	if exact.Groups == nil {
		return relErr(approx.Scalar, exact.Scalar)
	}
	if len(exact.Groups) == 0 {
		return 0
	}
	var sum float64
	for g, ev := range exact.Groups {
		av, ok := approx.Groups[g]
		if !ok {
			sum += 1 // missing group: worst-case error
			continue
		}
		sum += relErr(av, ev)
	}
	return sum / float64(len(exact.Groups))
}

func relErr(a, e float64) float64 {
	if e == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - e) / e
	if d < 0 {
		d = -d
	}
	return d
}
