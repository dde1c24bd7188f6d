package main

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expectation annotations in fixtures:  // want "substr"
var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

type expectation struct {
	file string // base name
	line int
	sub  string
}

// loadFixture loads one fixture directory, overriding Rel so scoped
// analyzers see the intended module-relative path.
func loadFixture(t *testing.T, dir, relOverride string) *Pkg {
	t.Helper()
	pkgs, err := loadDir(dir, relOverride)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", dir, len(pkgs))
	}
	return pkgs[0]
}

// expectations scans every .go file in dir for // want annotations.
func expectations(t *testing.T, dir string) []expectation {
	t.Helper()
	var out []expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fh, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		line := 0
		for sc.Scan() {
			line++
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				out = append(out, expectation{file: e.Name(), line: line, sub: m[1]})
			}
		}
		fh.Close()
	}
	return out
}

// checkFixture runs one analyzer over a fixture and verifies findings
// match the // want annotations exactly (both directions).
func checkFixture(t *testing.T, a *Analyzer, fixture, relOverride string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg := loadFixture(t, dir, relOverride)
	findings := runAnalyzers([]*Pkg{pkg}, []*Analyzer{a})
	want := expectations(t, dir)

	matched := make([]bool, len(findings))
	for _, w := range want {
		found := false
		for i, f := range findings {
			if matched[i] {
				continue
			}
			if filepath.Base(f.Pos.Filename) == w.file && f.Pos.Line == w.line && strings.Contains(f.Msg, w.sub) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: missing finding at %s:%d containing %q", a.Name, w.file, w.line, w.sub)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("%s: unexpected finding: %s", a.Name, f)
		}
	}
}

func TestGlobalRand(t *testing.T) {
	checkFixture(t, analyzerGlobalRand, "globalrand", "internal/fixture")
}

func TestGlobalRandSkipsPackageMain(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "src", "globalrand"), "internal/fixture")
	pkg.Name = "main" // simulate a binary package
	if fs := runAnalyzers([]*Pkg{pkg}, []*Analyzer{analyzerGlobalRand}); len(fs) != 0 {
		t.Errorf("package main should be exempt, got %d findings", len(fs))
	}
}

func TestGoroutineDiscipline(t *testing.T) {
	checkFixture(t, analyzerGoroutine, "goroutinedisc", "internal/fixture")
}

func TestEventTime(t *testing.T) {
	checkFixture(t, analyzerEventTime, "eventtime", "internal/window")
}

func TestEventTimeOutOfScope(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "src", "eventtime"), "internal/spe")
	if fs := runAnalyzers([]*Pkg{pkg}, []*Analyzer{analyzerEventTime}); len(fs) != 0 {
		t.Errorf("out-of-scope package should be clean, got %d findings", len(fs))
	}
}

func TestFloatCmp(t *testing.T) {
	checkFixture(t, analyzerFloatCmp, "floatcmp", "internal/stats")
}

func TestErrcheckLite(t *testing.T) {
	checkFixture(t, analyzerErrcheckLite, "errchecklite", "internal/fixture")
}

func TestHotLoop(t *testing.T) {
	checkFixture(t, analyzerHotLoop, "hotloop", "internal/spe")
}

// TestHotKernel is the internal/core side of the hotloop analyzer: the
// loops of every ingestRun kernel — including loops inside the
// synchronous window-run visit closure — must reject mutex/metric
// calls, allocation churn, tuple.Value boxing, per-row Value accessors,
// per-row interface conversions and Vals row-storage indexing, while
// the entry-point adapters, per-batch setup, per-run amortized work and
// per-window helpers stay quiet.
func TestHotKernel(t *testing.T) {
	checkFixture(t, analyzerHotLoop, "hotkernel", "internal/core")
}

// TestHotTransport is the internal/transport side of the hotloop
// analyzer: the shuffle send path (pump, sendSeq, and everything the
// encode closures reach synchronously) must reject inline net dials
// and per-frame allocation churn, while the redial goroutine and code
// the path never reaches stay quiet.
func TestHotTransport(t *testing.T) {
	checkFixture(t, analyzerHotLoop, "hottransport", "internal/transport")
}

func TestHotLoopOutOfScope(t *testing.T) {
	for _, fixture := range []string{"hotloop", "hotkernel", "hottransport"} {
		pkg := loadFixture(t, filepath.Join("testdata", "src", fixture), "internal/fixture")
		if fs := runAnalyzers([]*Pkg{pkg}, []*Analyzer{analyzerHotLoop}); len(fs) != 0 {
			t.Errorf("out-of-scope %s should be clean, got %d findings", fixture, len(fs))
		}
	}
}

// TestHotLoopCrossScope pins the scope split: the worker fixture loaded
// as internal/core must be clean (no Topology.Run expansion there), and
// the manager fixture loaded as internal/spe must be clean (no
// ingestRun scan there).
func TestHotLoopCrossScope(t *testing.T) {
	for fixture, rel := range map[string]string{
		"hotloop":   "internal/core",
		"hotkernel": "internal/spe",
	} {
		pkg := loadFixture(t, filepath.Join("testdata", "src", fixture), rel)
		if fs := runAnalyzers([]*Pkg{pkg}, []*Analyzer{analyzerHotLoop}); len(fs) != 0 {
			t.Errorf("%s as %s should be clean, got %d findings", fixture, rel, len(fs))
		}
	}
}

// TestSpillSeam is the direct-spill side of the hotloop analyzer: raw
// SpillStore.Store/Get calls reachable from OnTuple/OnTupleBatch
// (including through package-local helpers) must be flagged, while
// Plane-routed calls, snapshot/recovery helpers, non-spill Store/Get
// methods, and ambiguously-typed names stay quiet.
func TestSpillSeam(t *testing.T) {
	checkFixture(t, analyzerHotLoop, "spillseam", "internal/core")
}

// TestSpillSeamWindowScope pins that the window buffer package is in
// scope too: same fixture, same findings, loaded as internal/window.
func TestSpillSeamWindowScope(t *testing.T) {
	checkFixture(t, analyzerHotLoop, "spillseam", "internal/window")
}

func TestSpillSeamOutOfScope(t *testing.T) {
	for _, rel := range []string{"internal/spe", "internal/fixture"} {
		pkg := loadFixture(t, filepath.Join("testdata", "src", "spillseam"), rel)
		if fs := runAnalyzers([]*Pkg{pkg}, []*Analyzer{analyzerHotLoop}); len(fs) != 0 {
			t.Errorf("spillseam as %s should be clean, got %d findings", rel, len(fs))
		}
	}
}

// TestControlCell is the controller-cell side of the hotloop analyzer:
// control.Cell writes (Set — anything beyond the Budget/Shedding atomic
// reads) reachable from OnTuple/OnTupleBatch/OnColumnBatch, including
// through package-local helpers and the `c := m.cfg.Cell` alias, must
// be flagged, while the sanctioned reads, snapshot-time republishing,
// and non-cell Set methods stay quiet.
func TestControlCell(t *testing.T) {
	checkFixture(t, analyzerHotLoop, "controlcell", "internal/core")
}

func TestControlCellOutOfScope(t *testing.T) {
	for _, rel := range []string{"internal/spe", "internal/fixture"} {
		pkg := loadFixture(t, filepath.Join("testdata", "src", "controlcell"), rel)
		if fs := runAnalyzers([]*Pkg{pkg}, []*Analyzer{analyzerHotLoop}); len(fs) != 0 {
			t.Errorf("controlcell as %s should be clean, got %d findings", rel, len(fs))
		}
	}
}

func TestSuppression(t *testing.T) {
	checkFixture(t, analyzerGlobalRand, "suppress", "internal/fixture")
}

// TestRepoClean is the gate the acceptance criteria demand: the full
// repository must produce zero findings. It mirrors
// `go run ./cmd/spearlint ./...` from the module root.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", root)
	}
	pkgs, err := walkTree(root)
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	findings := runAnalyzers(pkgs, analyzers)
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
	if len(findings) == 0 {
		t.Logf("repo clean across %d packages", len(pkgs))
	}
}

// seed is one mutation of a real source file, in a package copied out
// of the repository: in file, inject replaces anchor.
type seed struct{ file, anchor, inject string }

// checkSeeded copies the repo package at rel (module-relative) to a temp
// tree, applies the seeds, and holds analyzer a to exactly one finding
// per entry of want — trimmed text of an injected line → a substring of
// the message reported there — and nothing else. The fixtures show what
// an analyzer flags; this shows it still looks where the engine's code
// is.
func checkSeeded(t *testing.T, a *Analyzer, rel string, seeds []seed, want map[string]string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("..", "..", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Skipf("%s not found at %s", rel, src)
	}
	root := copyTree(t, src)
	for _, s := range seeds {
		rewriteFile(t, filepath.Join(root, s.file), s.anchor, s.inject)
	}
	for _, f := range runAnalyzers([]*Pkg{loadFixture(t, root, rel)}, []*Analyzer{a}) {
		b, err := os.ReadFile(f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimSpace(strings.Split(string(b), "\n")[f.Pos.Line-1])
		if sub, ok := want[line]; ok && strings.Contains(f.Msg, sub) {
			t.Logf("caught: %s", f)
			delete(want, line)
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for line, sub := range want {
		t.Errorf("seeded %q not reported (want a %s finding containing %q)", line, a.Name, sub)
	}
}

// TestHotKernelCatchesSeededMutation proves the manager arm sees the
// real kernels, not just the fixture: a histogram observation and a
// fmt.Sprintf per element in the run closure of ScalarManager.ingestRun,
// and a per-row read of row storage in GroupedManager.ingestRun's id
// loop, must each produce one finding at the injected line and nothing
// else. While the arm looked for loops in OnTuple, OnTupleBatch and
// OnColumnBatch by name — loop-free adapters since the kernels were
// unified — all three passed.
func TestHotKernelCatchesSeededMutation(t *testing.T) {
	checkSeeded(t, analyzerHotLoop, "internal/core", []seed{
		{"scalar.go", "\t\trun := vals[i0:i1]\n",
			"\t\trun := vals[i0:i1]\n\t\tfor _, v := range run {\n" +
				"\t\t\tm.cfg.Metrics.ProcTime.Observe(v)\n\t\t\t_ = fmt.Sprintf(\"%v\", v)\n\t\t}\n"},
		{"grouped.go", "\t\t\t\t\tw.gs.AddID(gid, run[i])\n",
			"\t\t\t\t\t_ = rows[i0+i].Vals[0]\n\t\t\t\t\tw.gs.AddID(gid, run[i])\n"},
	}, map[string]string{
		"m.cfg.Metrics.ProcTime.Observe(v)": "mutex-guarded metric",
		"_ = fmt.Sprintf(\"%v\", v)":        "fmt.Sprintf inside",
		"_ = rows[i0+i].Vals[0]":            "row-format field access",
	})
}

// TestAnalyzersCatchSeededMutations is the same proof for the five other
// syntactic analyzers (DESIGN.md §9.1's "guards" column): each reports
// one violation of its contract seeded into the package it guards.
func TestAnalyzersCatchSeededMutations(t *testing.T) {
	for _, c := range []struct {
		a    *Analyzer
		rel  string
		seed seed
		line string
		sub  string
	}{
		{analyzerGlobalRand, "internal/sample",
			seed{"reservoir.go", "import (\n\t\"math\"\n)\n\n", "import (\n\t\"math\"\n\t\"math/rand\"\n)\n\nvar _ = rand.Intn(3)\n\n"},
			"var _ = rand.Intn(3)", "global source"},
		{analyzerGoroutine, "internal/stats",
			seed{"welford.go", "func (w *Welford) Merge(o Welford) {\n", "func (w *Welford) Merge(o Welford) {\n\tgo func() { _ = o.n }()\n"},
			"go func() { _ = o.n }()", "no lifecycle discipline"},
		{analyzerEventTime, "internal/core",
			seed{"config.go", "\t//lint:ignore eventtime telemetry-clock default; event-time logic never calls this\n", ""},
			"return time.Now", "time.Now in an event-time package"},
		{analyzerFloatCmp, "internal/stats",
			seed{"welford.go", "func (w *Welford) Merge(o Welford) {\n", "func (w *Welford) Merge(o Welford) {\n\tif w.mean == o.mean {\n\t\treturn\n\t}\n"},
			"if w.mean == o.mean {", "float equality"},
		{analyzerErrcheckLite, "internal/core",
			seed{"archive.go", "ts, err := a.store.Get(a.paneKey(p))", "ts, _ := a.store.Get(a.paneKey(p))\n\t\tvar err error"},
			"ts, _ := a.store.Get(a.paneKey(p))", "error returned by .Get is dropped"},
	} {
		t.Run(c.a.Name, func(t *testing.T) {
			checkSeeded(t, c.a, c.rel, []seed{c.seed}, map[string]string{c.line: c.sub})
		})
	}
}

// TestCatalogNamesUnique guards the suppression syntax: duplicate or
// empty analyzer names would make //lint:ignore ambiguous.
func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer with empty name or doc: %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(analyzers) != 6 {
		t.Errorf("catalogue has %d analyzers, want 6", len(analyzers))
	}
}

// TestFindingString pins the report format other tooling greps.
func TestFindingString(t *testing.T) {
	f := Finding{Check: "globalrand", Msg: "m"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "x.go:3:7: [globalrand] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
