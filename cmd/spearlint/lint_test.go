package main

import (
	"bufio"
	"io/fs"
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
	pkg := loadFixture(t, filepath.Join("testdata", "src", "eventtime"), "internal/transport")
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

// TestSuppression pins the suppression policy: //lint:ignore <check>
// <reason> silences its own line and the next, and a directive without
// a reason, or for another check, is inert.
func TestSuppression(t *testing.T) {
	checkFixture(t, analyzerGlobalRand, "suppress", "internal/fixture")
}

// TestAllowRequiresReason holds the suppression policy on a directive in
// the engine's own code: core's telemetry-clock default stays silenced
// while its //lint:ignore gives a reason, and with the reason stripped
// the directive is inert, so the time.Now finding comes back.
func TestAllowRequiresReason(t *testing.T) {
	const directive = "\t//lint:ignore eventtime telemetry-clock default; event-time logic never calls this\n"
	for _, c := range []struct {
		name string
		seed []seed
		want map[string]string
	}{
		{"withReason", nil, map[string]string{}},
		{"noReason", []seed{{"config.go", directive, "\t//lint:ignore eventtime\n"}},
			map[string]string{"return time.Now": "time.Now in an event-time package"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkSeeded(t, analyzerEventTime, "internal/core", c.seed, c.want)
		})
	}
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

// copyTree copies every .go file and go.mod under src into a fresh
// temp directory, preserving layout and skipping VCS and fixture
// directories.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "vendor":
				if path != src {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copy tree: %v", err)
	}
	return dst
}

// rewriteFile replaces old with new in one file; old must occur at
// least once.
func rewriteFile(t *testing.T, path, old, new string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), old) {
		t.Fatalf("%s: expected snippet %q not found — the seeded-mutation anchor moved", path, old)
	}
	if err := os.WriteFile(path, []byte(strings.ReplaceAll(string(b), old, new)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzersCatchSeededMutations proves each syntactic analyzer sees
// the real code, not just its fixture (DESIGN.md §9.1's "guards"
// column): each reports one violation of its contract seeded into the
// package it guards — eventtime in two of them.
func TestAnalyzersCatchSeededMutations(t *testing.T) {
	for _, c := range []struct {
		name  string
		a     *Analyzer
		rel   string
		seeds []seed
		line  string
		sub   string
	}{
		{"globalrand", analyzerGlobalRand, "internal/sample",
			[]seed{{"reservoir.go", "import (\n\t\"math\"\n)\n\n", "import (\n\t\"math\"\n\t\"math/rand\"\n)\n\nvar _ = rand.Intn(3)\n\n"}},
			"var _ = rand.Intn(3)", "global source"},
		{"goroutine-discipline", analyzerGoroutine, "internal/stats",
			[]seed{{"welford.go", "func (w *Welford) Merge(o Welford) {\n", "func (w *Welford) Merge(o Welford) {\n\tgo func() { _ = o.n }()\n"}},
			"go func() { _ = o.n }()", "no lifecycle discipline"},
		{"eventtime", analyzerEventTime, "internal/core",
			[]seed{{"config.go", "\t//lint:ignore eventtime telemetry-clock default; event-time logic never calls this\n", ""}},
			"return time.Now", "time.Now in an event-time package"},
		// A wall-clock read per tuple in the spout loop of Topology.Run.
		{"eventtime_engine", analyzerEventTime, "internal/spe",
			[]seed{
				{"engine.go", "\t\"math\"\n", "\t\"math\"\n\t\"time\"\n"},
				{"engine.go", "\t\t\t\tout.sendTo(out.route(t), t)\n", "\t\t\t\t_ = time.Now()\n\t\t\t\tout.sendTo(out.route(t), t)\n"},
			},
			"_ = time.Now()", "time.Now in an event-time package"},
		{"floatcmp", analyzerFloatCmp, "internal/stats",
			[]seed{{"welford.go", "func (w *Welford) Merge(o Welford) {\n", "func (w *Welford) Merge(o Welford) {\n\tif w.mean == o.mean {\n\t\treturn\n\t}\n"}},
			"if w.mean == o.mean {", "float equality"},
		{"errcheck-lite", analyzerErrcheckLite, "internal/core",
			[]seed{{"archive.go", "ts, err := a.store.Get(a.paneKey(p))", "ts, _ := a.store.Get(a.paneKey(p))\n\t\tvar err error"}},
			"ts, _ := a.store.Get(a.paneKey(p))", "error returned by .Get is dropped"},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkSeeded(t, c.a, c.rel, c.seeds, map[string]string{c.line: c.sub})
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
	if len(analyzers) != 5 {
		t.Errorf("catalogue has %d analyzers, want 5", len(analyzers))
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
