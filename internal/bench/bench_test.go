package bench

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"spear"
	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/dataset"
	"spear/internal/obs"
	"spear/internal/storage"
	"spear/internal/tuple"
	"spear/internal/window"
)

func TestTablePrint(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"1", "2"}, {"three", "4"}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	tb.Print(&sb)
	out := sb.String()
	for _, want := range []string{"== demo ==", "long-column", "three", "note: a note", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsTuples(t *testing.T) {
	opt := Options{Scale: 0.5}
	if got := opt.tuples(1000); got != 1000 {
		t.Errorf("floor: %d", got) // 500 < 1000 floor
	}
	if got := opt.tuples(1_000_000); got != 500_000 {
		t.Errorf("scaled: %d", got)
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.50" {
		t.Errorf("ms = %q", got)
	}
	if got := ms(250 * time.Millisecond); got != "250" {
		t.Errorf("ms large = %q", got)
	}
	if got := ms(1500 * time.Nanosecond); got != "0.0015" {
		t.Errorf("ms small = %q", got)
	}
	if got := kb(2048); got != "2.0" {
		t.Errorf("kb = %q", got)
	}
	if got := speedup(100, 10); got != "10.00x" {
		t.Errorf("speedup = %q", got)
	}
	if got := speedup(100, 0); got != "inf" {
		t.Errorf("speedup by zero = %q", got)
	}
}

func TestResultError(t *testing.T) {
	// Scalar.
	a := spear.Result{Scalar: 110}
	e := spear.Result{Scalar: 100}
	if got := ResultError(a, e); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("scalar error = %v", got)
	}
	// Grouped L1.
	a = spear.Result{Groups: map[string]float64{"x": 11, "y": 20}}
	e = spear.Result{Groups: map[string]float64{"x": 10, "y": 20}}
	if got := ResultError(a, e); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("grouped error = %v", got)
	}
	// Missing group counts as error 1.
	a = spear.Result{Groups: map[string]float64{"x": 10}}
	if got := ResultError(a, e); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("missing group error = %v", got)
	}
	// Empty exact groups.
	if got := ResultError(a, spear.Result{Groups: map[string]float64{}}); got != 0 {
		t.Errorf("empty grouped = %v", got)
	}
	// An exact answer of 0: error 1 unless the estimate is 0 too, for a
	// scalar window and for a group.
	for _, c := range []struct {
		approx, want float64
	}{{0, 0}, {0.5, 1}, {-3, 1}} {
		if got := ResultError(spear.Result{Scalar: c.approx}, spear.Result{}); got != c.want {
			t.Errorf("scalar exact 0, estimate %v: error = %v, want %v", c.approx, got, c.want)
		}
		a = spear.Result{Groups: map[string]float64{"x": c.approx, "y": 20}}
		e = spear.Result{Groups: map[string]float64{"x": 0, "y": 20}}
		if got := ResultError(a, e); got != c.want/2 {
			t.Errorf("group exact 0, estimate %v: error = %v, want %v", c.approx, got, c.want/2)
		}
	}
	if relErr(0, 0) != 0 || relErr(1, 0) != 1 {
		t.Error("relErr zero handling")
	}
}

func TestAccuracyJoin(t *testing.T) {
	approx := &runOut{results: map[resKey]spear.Result{
		{0, 1}: {Scalar: 11},
		{0, 2}: {Scalar: 30},
		{0, 9}: {Scalar: 99}, // unmatched
	}}
	exact := &runOut{results: map[resKey]spear.Result{
		{0, 1}: {Scalar: 10},
		{0, 2}: {Scalar: 20},
	}}
	errs, viol := accuracy(approx, exact)
	if len(errs) != 2 {
		t.Fatalf("%d joined errors", len(errs))
	}
	if viol(0.2) != 1 { // only the 50% error window exceeds 20%
		t.Errorf("violations = %d", viol(0.2))
	}
}

// TestSampledShare: the accel% cells read the share of windows a run
// answered from the sample (or incrementally) off its summary.
func TestSampledShare(t *testing.T) {
	if got := accelPct(spear.Summary{Windows: 4, Accelerated: 2}); got != "50%" {
		t.Errorf("accelPct = %q", got)
	}
	if got := accelPct(spear.Summary{}); got != "0%" {
		t.Errorf("empty share = %q", got)
	}
}

// countMinConfig configures the CountMin baseline as runCountMin does,
// for the mean of field 0 by field 1 over spec.
func countMinConfig(spec window.Spec, met *obs.Worker) core.Config {
	return core.Config{
		Spec: spec, Agg: agg.Func{Op: agg.Mean}, Value: tuple.FieldFloat(0), KeyBy: tuple.FieldString(1),
		Epsilon: 0.1, Confidence: 0.95, BudgetTuples: 1, Store: storage.NewMemStore(), Metrics: met,
	}
}

func TestCountMinManagerBasics(t *testing.T) {
	met := &obs.Worker{}
	m, err := core.NewCountMinManager(countMinConfig(window.Tumbling(time.Hour), met))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OnTupleBatch([]tuple.Tuple{tuple.New(1, tuple.Float(2), tuple.String_("g"))}); err != nil {
		t.Fatal(err)
	}
	// The buffered row and the sketch.
	if row := int64(tuple.New(1, tuple.Float(2), tuple.String_("g")).MemSize()); met.MemBytes.Load() <= row {
		t.Errorf("MemBytes = %d, want the row's %d and the sketch's", met.MemBytes.Load(), row)
	}
	cfg := countMinConfig(window.Tumbling(time.Second), nil)
	cfg.KeyBy = nil
	if _, err := core.NewCountMinManager(cfg); err == nil {
		t.Error("nil key accepted")
	}
}

// TestCountMinBooksLateTuples: the CountMin baseline books its ingest as
// every core manager does (TuplesIn + LateDropped = delivered): a tuple
// behind a fired window is dropped by the buffer, counted in LateDropped
// and left out of TuplesIn.
func TestCountMinBooksLateTuples(t *testing.T) {
	met := &obs.Worker{}
	m, err := core.NewCountMinManager(countMinConfig(window.Spec{Domain: window.TimeDomain, Range: 10, Slide: 10}, met))
	if err != nil {
		t.Fatal(err)
	}
	row := func(ts int64) []tuple.Tuple { return []tuple.Tuple{tuple.New(ts, tuple.Float(1), tuple.String_("g"))} }
	if _, err := m.OnTupleBatch(row(5)); err != nil {
		t.Fatal(err)
	}
	if rs, err := m.OnWatermark(30); err != nil || len(rs) != 1 {
		t.Fatalf("the watermark fired %d windows (%v), want 1", len(rs), err)
	}
	// 3 falls in [0, 10), which has fired: late. 35 opens [30, 40).
	if _, err := m.OnTupleBatch(append(row(3), row(35)...)); err != nil {
		t.Fatal(err)
	}
	if in, late := met.TuplesIn.Load(), met.LateDropped.Load(); in != 2 || late != 1 {
		t.Errorf("TuplesIn = %d, LateDropped = %d; want 2 admitted and 1 dropped of 3 delivered", in, late)
	}
}

func TestCountMinManagerEndToEnd(t *testing.T) {
	cm, err := runCountMin("cm-test",
		dataset.GCM(dataset.GCMConfig{Tuples: 60_000, Seed: 1}), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cm.sum.Windows == 0 {
		t.Fatal("no windows fired")
	}
	// The sketch baseline must still include every group.
	for _, r := range cm.results {
		if len(r.Groups) != dataset.SchedClasses {
			t.Errorf("window has %d groups", len(r.Groups))
		}
		for g, v := range r.Groups {
			if v <= 0 || math.IsNaN(v) {
				t.Errorf("group %s estimate %v", g, v)
			}
		}
	}
}

// TestCountMinReplaysFromTheSeed: Table 2's CountMin legs, run twice at
// one seed, answer every window alike, bit for bit: each row of the
// sketch hashes with a seed derived from the query's, not a fresh one.
func TestCountMinReplaysFromTheSeed(t *testing.T) {
	opt := Options{Scale: 0.002, Seed: 1}
	for name, stream := range map[string]func() *dataset.Stream{
		"GCM":  func() *dataset.Stream { return gcmStream(opt, 0, 0) },
		"DEBS": func() *dataset.Stream { return debsStream(opt) },
	} {
		var runs [2]*runOut
		for i := range runs {
			out, err := runCountMin("countmin", stream(), paperWorkers, opt.Seed)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = out
		}
		if len(runs[0].results) == 0 || len(runs[0].results) != len(runs[1].results) {
			t.Fatalf("%s: %d and %d windows", name, len(runs[0].results), len(runs[1].results))
		}
		for k, r := range runs[0].results {
			again := runs[1].results[k]
			if len(again.Groups) != len(r.Groups) {
				t.Fatalf("%s window %v: %d groups, then %d", name, k, len(r.Groups), len(again.Groups))
			}
			for g, v := range r.Groups {
				if w, ok := again.Groups[g]; !ok || math.Float64bits(w) != math.Float64bits(v) {
					t.Fatalf("%s window %v group %q: %v, then %v", name, k, g, v, w)
				}
			}
		}
	}
}

// TestExperimentRegistryComplete pins the registry to the paper's
// evaluation (§5: Table 1–2, Fig. 6–12) plus adaptive. The engine's own
// performance is measured by benchmark/, not here: an experiment that
// comes back has to edit this list.
func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig6", "fig7", "fig8a", "fig8b", "fig8c",
		"fig8d", "table2", "fig9", "fig10", "fig11", "fig12", "adaptive"}
	for _, e := range Experiments {
		if e.Run == nil {
			t.Errorf("experiment %q has no Run", e.ID)
		}
		if sel := Select(e.ID); len(sel) != 1 || sel[0].ID != e.ID {
			t.Errorf("Select(%q) = %v", e.ID, sel)
		}
	}
	if got := IDs(Experiments); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry ids = %v, want %v", got, want)
	}
	if len(Select("all")) != len(want) || len(Select("fig13")) != 0 {
		t.Error(`Select("all") is not the registry, or an unknown id selects something`)
	}
}

var updateTinyCells = flag.Bool("update-tiny-cells", false, "rewrite testdata/tiny_cells.golden from the current code")

// tinyCells names, by table title, the columns of the experiments'
// cells that no clock reaches: counts, accelerated shares, errors and
// memory, which replay bit for bit from the seed. Every other cell is a
// time or a ratio of times. An empty list keeps the whole row.
var tinyCells = map[string][]string{
	"Table 1: Datasets and Queries Used (measured at scale)":           nil,
	"Fig 7: Mean memory usage per worker on DEC (KB)":                  nil,
	"Fig 8c: GCM (grouped mean CPU per class) window processing time":  {"engine", "accel%"},
	"Fig 8d: DEBS (grouped avg fare per route) window processing time": {"engine", "accel%"},
	"Fig 10: GCM processing time with varying window sizes (b=4000)":   {"window(s)", "SPEAr accel%"},
	"Fig 11: Relative error per window on DEC mean (ε=10%, α=95%)":     nil,
	"Fig 11 (series): per-window relative error %, first 40 windows":   nil,
}

// deterministicCells renders the tinyCells columns of tb, one line a
// row, or "" when tb has none.
func deterministicCells(tb *Table) string {
	cols, ok := tinyCells[tb.Title]
	if !ok {
		return ""
	}
	var idx []int
	for i, h := range tb.Header {
		if len(cols) == 0 || slices.Contains(cols, h) {
			idx = append(idx, i)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n", tb.Title)
	for _, row := range tb.Rows {
		cells := make([]string, len(idx))
		for j, i := range idx {
			cells[j] = tb.Header[i] + "=" + row[i]
		}
		sb.WriteString(strings.Join(cells, " | ") + "\n")
	}
	return sb.String()
}

// readTinyCells splits testdata/tiny_cells.golden into its tables'
// blocks, by title.
func readTinyCells(t *testing.T, path string) map[string]string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string]string)
	var title string
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			title = strings.TrimSuffix(rest, "\n")
		}
		blocks[title] += line
	}
	return blocks
}

// TestExperimentsRunTiny executes every experiment at minimal scale:
// the full evaluation must stay runnable end to end, and every cell no
// clock reaches (tinyCells) must equal testdata/tiny_cells.golden.
// -update-tiny-cells rewrites the golden from a run of the whole sweep.
func TestExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	path := filepath.Join("testdata", "tiny_cells.golden")
	var want map[string]string
	if !*updateTinyCells {
		want = readTinyCells(t, path)
	}
	opt := Options{Scale: 0.002, Seed: 1}
	var got []string // the blocks in presentation order
	ran := 0
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			ran++
			tables, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("table %q row width %d != header %d",
							tb.Title, len(row), len(tb.Header))
					}
				}
				var sb strings.Builder
				tb.Print(&sb) // must not panic
				c := deterministicCells(tb)
				if c == "" {
					continue
				}
				got = append(got, c)
				if !*updateTinyCells && c != want[tb.Title] {
					t.Errorf("deterministic cells differ from %s:\n%s\nwant:\n%s", path, c, want[tb.Title])
				}
			}
		})
	}
	switch {
	case ran < len(Experiments) && *updateTinyCells:
		t.Fatal("-update-tiny-cells rewrites the golden from the whole sweep; drop the -run filter")
	case ran < len(Experiments):
		// A -run filter left experiments out; the ones that ran compared their blocks.
	case *updateTinyCells:
		if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	case len(got) != len(want):
		t.Errorf("the sweep printed %d tables with deterministic cells, %s holds %d", len(got), path, len(want))
	}
}
