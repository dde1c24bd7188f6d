package bench

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"spear"
	"spear/internal/core"
	"spear/internal/dataset"
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
	if got := resultError(a, e); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("scalar error = %v", got)
	}
	// Grouped L1.
	a = spear.Result{Groups: map[string]float64{"x": 11, "y": 20}}
	e = spear.Result{Groups: map[string]float64{"x": 10, "y": 20}}
	if got := resultError(a, e); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("grouped error = %v", got)
	}
	// Missing group counts as error 1.
	a = spear.Result{Groups: map[string]float64{"x": 10}}
	if got := resultError(a, e); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("missing group error = %v", got)
	}
	// Empty exact groups.
	if got := resultError(a, spear.Result{Groups: map[string]float64{}}); got != 0 {
		t.Errorf("empty grouped = %v", got)
	}
	if relErr(0, 0) != 0 || relErr(1, 0) != 1 {
		t.Error("relErr zero handling")
	}
	if meanErr(nil) != 0 {
		t.Error("meanErr empty")
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

func TestSampledShare(t *testing.T) {
	r := &runOut{results: map[resKey]spear.Result{
		{0, 1}: {Mode: core.ModeSampled},
		{0, 2}: {Mode: core.ModeExact},
		{0, 3}: {Mode: core.ModeIncremental},
		{0, 4}: {Mode: core.ModeExact},
	}}
	if got := sampledShare(r); got != 0.5 {
		t.Errorf("sampledShare = %v", got)
	}
	if sampledShare(&runOut{results: map[resKey]spear.Result{}}) != 0 {
		t.Error("empty share")
	}
}

func TestCountMinManagerBasics(t *testing.T) {
	ds := dataset.GCM(dataset.GCMConfig{Tuples: 1, Seed: 1})
	m, err := NewCountMinManager(window.Tumbling(time.Hour), ds.Key, ds.Value, 0.1, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.MemUsage() < 0 {
		t.Error("MemUsage negative")
	}
	if _, err := NewCountMinManager(window.Tumbling(time.Second), nil, ds.Value, 0.1, 0.05, nil); err == nil {
		t.Error("nil key accepted")
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

// TestExperimentRegistryComplete pins the registry to the paper's
// evaluation (§5: Table 1–2, Fig. 6–12) plus adaptive. The engine's own
// performance is measured by benchmark/, not here: an experiment that
// comes back has to edit this list.
func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig6", "fig7", "fig8a", "fig8b", "fig8c",
		"fig8d", "table2", "fig9", "fig10", "fig11", "fig12", "adaptive"}
	if got := ExperimentIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExperimentIDs() = %v, want %v", got, want)
	}
	if len(Experiments) != len(want) {
		t.Fatalf("registry holds %d experiments, want %d", len(Experiments), len(want))
	}
	for _, id := range want {
		if Experiments[id] == nil {
			t.Errorf("experiment %q missing", id)
		}
	}
}

// TestExperimentsRunTiny executes every experiment at minimal scale:
// the full evaluation must stay runnable end to end.
func TestExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	opt := Options{Scale: 0.002, Seed: 1}
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Experiments[id](opt)
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
			}
		})
	}
}
