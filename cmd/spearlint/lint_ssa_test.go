package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"spear/cmd/spearlint/internal/ssadf"
)

// ssaWantRe matches expectation annotations in dataflow fixtures. A
// line may carry several expectations:  // want "first" "second"
var (
	ssaWantRe  = regexp.MustCompile(`//\s*want((?:\s+"[^"]+")+)`)
	ssaWantSub = regexp.MustCompile(`"([^"]+)"`)
)

// ssaFixtureRoot returns the on-disk root of one dataflow fixture
// module.
func ssaFixtureRoot(name string) string {
	return filepath.Join("testdata", "src", "ssa", name)
}

// loadSSAFixture loads one fixture tree as a whole program. Fixtures
// are miniature modules: the loader receives a synthetic module path so
// intra-fixture imports ("fixture.example/<name>/internal/...") resolve
// exactly like the engine's own.
func loadSSAFixture(t *testing.T, root string, name string) *ssadf.Program {
	t.Helper()
	prog, err := ssadf.SharedLoader().Load(root, "fixture.example/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	for _, e := range prog.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, e)
	}
	return prog
}

// ssaExpectations scans a fixture tree (recursively — fixtures hold
// nested packages) for // want annotations.
func ssaExpectations(t *testing.T, root string) []expectation {
	t.Helper()
	var out []expectation
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		fh, err := os.Open(path)
		if err != nil {
			return err
		}
		defer fh.Close()
		sc := bufio.NewScanner(fh)
		line := 0
		for sc.Scan() {
			line++
			m := ssaWantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, sub := range ssaWantSub.FindAllStringSubmatch(m[1], -1) {
				out = append(out, expectation{file: filepath.Base(path), line: line, sub: sub[1]})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSSAFixture runs one dataflow analyzer over a fixture and
// verifies findings match the // want annotations exactly, in both
// directions and at exact positions.
func checkSSAFixture(t *testing.T, a *ssadf.Analyzer, name string) {
	t.Helper()
	root := ssaFixtureRoot(name)
	prog := loadSSAFixture(t, root, name)
	findings := ssadf.RunAll(prog, []*ssadf.Analyzer{a})
	want := ssaExpectations(t, root)

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

func TestPoolreturn(t *testing.T) {
	checkSSAFixture(t, ssadf.AnalyzerPoolreturn, "poolreturn")
}

func TestPoolreturnClean(t *testing.T) {
	checkSSAFixture(t, ssadf.AnalyzerPoolreturn, "poolreturn_ok")
}

func TestBlockfree(t *testing.T) {
	checkSSAFixture(t, ssadf.AnalyzerBlockfree, "blockfree")
}

func TestBlockfreeClean(t *testing.T) {
	checkSSAFixture(t, ssadf.AnalyzerBlockfree, "blockfree_ok")
}

// TestAllowRequiresReason pins the suppression policy the dataflow layer
// shares with the syntactic one: //lint:ignore <check> <reason> silences
// the finding on the next line, and a directive without a reason is
// inert, so the finding comes back.
func TestAllowRequiresReason(t *testing.T) {
	for _, c := range []struct {
		directive string
		want      int // findings of the fixture's two
	}{
		{"//lint:ignore poolreturn fixture: the leak on the negative path is the point", 1},
		{"//lint:ignore poolreturn", 2},
	} {
		root := copyTree(t, ssaFixtureRoot("poolreturn"))
		rewriteFile(t, filepath.Join(root, "internal", "bufpool", "bufpool.go"), "\tb := get()", "\t"+c.directive+"\n\tb := get()")
		prog, err := ssadf.SharedLoader().Load(root, "fixture.example/poolreturn")
		if err != nil {
			t.Fatal(err)
		}
		if got := ssadf.RunAll(prog, []*ssadf.Analyzer{ssadf.AnalyzerPoolreturn}); len(got) != c.want {
			t.Errorf("%q above Sum's get: %d findings, want %d: %v", c.directive, len(got), c.want, got)
		}
	}
}

// TestRepoCleanSSA is the dataflow twin of TestRepoClean: the full
// repository must produce zero findings from the whole-program
// analyzers. It mirrors `go run ./cmd/spearlint -ssa` from the module
// root.
func TestRepoCleanSSA(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", root)
	}
	prog, err := ssadf.SharedLoader().Load(root, "spear")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, e := range prog.TypeErrors {
		t.Errorf("type error loading repo: %v", e)
	}
	findings := ssadf.RunAll(prog, ssadf.Analyzers)
	for _, f := range findings {
		t.Errorf("repo not ssa-clean: %s", f)
	}
	if len(findings) == 0 {
		t.Logf("repo ssa-clean across %d packages", len(prog.Pkgs))
	}
}

// TestPoolreturnAndBlockfreeCatchSeededMutations proves the dataflow
// analyzers guard the real code, not just fixtures, on one mutated tree:
// the bug
// poolreturn found in spill.deflate put back (the flate writer returned
// to its pool on the success path only), and a mutex on obs.Gauge.Set,
// which its type documents lock-free.
func TestPoolreturnAndBlockfreeCatchSeededMutations(t *testing.T) {
	prog := loadMutatedRepo(t, func(root string) {
		codec := filepath.Join(root, "internal", "spill", "codec.go")
		rewriteFile(t, codec, "\tdefer flateWriters[level].Put(w)\n", "")
		rewriteFile(t, codec, "\treturn buf.Bytes(), nil\n}\n", "\tflateWriters[level].Put(w)\n\treturn buf.Bytes(), nil\n}\n")
		rewriteFile(t, filepath.Join(root, "internal", "obs", "worker.go"),
			"func (g *Gauge) Set(v int64) {\n",
			"var gaugeMu sync.Mutex\n\nfunc (g *Gauge) Set(v int64) {\n\tgaugeMu.Lock()\n\tdefer gaugeMu.Unlock()\n")
	})
	want := map[string]string{ // analyzer → what its one finding says
		"poolreturn": `pooled value "w"`,
		"blockfree":  "inside lock-free entry (*obs.Gauge).Set",
	}
	for _, f := range ssadf.RunAll(prog, []*ssadf.Analyzer{ssadf.AnalyzerPoolreturn, ssadf.AnalyzerBlockfree}) {
		if sub, ok := want[f.Analyzer]; ok && strings.Contains(f.Msg, sub) {
			t.Logf("caught: %s", f)
			delete(want, f.Analyzer)
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for a, sub := range want {
		t.Errorf("seeded %s mutation not reported (want a finding containing %q)", a, sub)
	}
}

// loadMutatedRepo copies the repository to a temp tree, lets mutate edit
// the copy, and loads it as one program; the mutated tree must still
// type-check.
func loadMutatedRepo(t *testing.T, mutate func(root string)) *ssadf.Program {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(srcRoot, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", srcRoot)
	}
	root := copyTree(t, srcRoot)
	mutate(root)
	prog, err := ssadf.SharedLoader().Load(root, "spear")
	if err != nil {
		t.Fatalf("load mutated tree: %v", err)
	}
	for _, e := range prog.TypeErrors {
		t.Errorf("type error loading mutated tree: %v", e)
	}
	return prog
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

// TestSSACatalog pins the dataflow catalogue: two uniquely-named
// analyzers, each documented.
func TestSSACatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range ssadf.Analyzers {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("ssa analyzer with empty name or doc: %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate ssa analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(ssadf.Analyzers) != 2 {
		t.Errorf("ssa catalogue has %d analyzers, want 2", len(ssadf.Analyzers))
	}
}

// TestSSAFindingString pins the report format other tooling greps.
func TestSSAFindingString(t *testing.T) {
	f := ssadf.Finding{Analyzer: "poolreturn", Msg: "m"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "x.go:3:7: [poolreturn] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
