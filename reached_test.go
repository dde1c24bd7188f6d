package spear

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedAllowed names the exported symbols under internal/ that no
// program, example or benchmark probe reaches and that stay anyway, each
// with its reason. A key is "pkg.Name", "pkg.Type.Method" or "pkg.*"
// for a whole package; an entry for a type covers its methods and its
// constructor New<Type> too.
var unreachedAllowed = map[string]string{
	"window.MultiBuffer":               "the Figs. 3–4 design SingleBuffer is checked against (TestMultiBufferMatchesSingleBuffer, TestSingleBufferStagesTheWindowsThatHoldTuples)",
	"window.SingleBuffer.PeakMemUsage": "SingleBuffer's peak is part of its snapshot layout; the window and round-trip tests read it",
	"window.Spec.Overlap":              "the oracle of the assign property",
	"stats.NormalCDF":                  "the oracle of TestNormalQuantileInvertsCDF",
	"sample.CongressAllocate":          "the reference the GroupReservoirs method is compared against",
	"tuple.Decode":                     "the reference of TestSlabDecode",
	"storage.NewFileStore":             "the durable store the multi-process recovery tests share",
	"core.DefaultScalarEstimate":       "part of the paper's estimator hook; README names it",
	"spe.Data":                         "Control's zero value",
	"spe.NewDisorderSpout":             "test support: out-of-order arrival for the engine and integration tests",
	"checkpointtest.*":                 "test support: StateDiff, what every TestRoundTrip<Type> compares with",
	"leakcheck.*":                      "test support: the goroutine-leak checks and the lock-free contracts",
	"obs.TraceRing.SetClock":           "a seam for a deterministic clock in tests",
	"transport.FaultDialer":            "test support: the dial and connection faults of the transport's recovery tests",
	"storage.LatencyStore.TotalDelay":  "test support: the delay the storage tests injected",
	"sample.Reservoir.Cap":             "test support: the capacity the adaptive-budget tests check",
	"sample.GroupReservoirs.PerGroup":  "test support: the per-group capacity the adaptive-budget tests check",
	"tuple.Value.Equal":                "test support: value comparison in the codec and round-trip tests",
}

// TestEveryExportedSymbolIsReached: every exported symbol under
// internal/ is named by a non-test file of the module or of benchmark/
// (whose layer probes import internal/), or has an unreachedAllowed
// entry. A package-level name is reached when a file uses it qualified
// through its import name, or bare inside its own package (receivers
// aside). A method of an exported type is reached when any selector or
// interface method has its name: a shared name can hide a dead method,
// but a live one is never flagged. An allow entry that excuses nothing
// fails too, so the list cannot go stale.
func TestEveryExportedSymbolIsReached(t *testing.T) {
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // dir → package name
	fset := token.NewFileSet()
	parseSources(t, fset, parser.SkipObjectResolution, func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, file{dir, f})
		pkgName[dir] = f.Name.Name
	})

	type symbol struct {
		key    string // pkg.Name or pkg.Type.Method
		use    string // dir.Name for a package-level name, Method for a method
		method bool
		pos    token.Pos
	}
	var decls []symbol
	declared := map[token.Pos]bool{} // declaring identifiers are not uses
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		pkg := fl.f.Name.Name
		add := func(id *ast.Ident) {
			declared[id.Pos()] = true
			if id.IsExported() {
				decls = append(decls, symbol{key: pkg + "." + id.Name, use: fl.dir + "." + id.Name, pos: id.Pos()})
			}
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				} else if typ := recvType(d.Recv); ast.IsExported(typ) && d.Name.IsExported() {
					decls = append(decls, symbol{key: pkg + "." + typ + "." + d.Name.Name, use: d.Name.Name, method: true, pos: d.Name.Pos()})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}

	qualified := map[string]bool{} // dir.Name used as pkg.Name
	bare := map[string]bool{}      // dir.Name used inside its own package
	selected := map[string]bool{}  // names of selectors and interface methods
	for _, fl := range files {
		imports := spearImports(fl.f, pkgName)
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil { // a receiver does not reach its type
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						qualified[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						selected[id.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n.Pos()] {
					bare[fl.dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	matched := map[string]bool{}
	for _, s := range decls {
		if s.method && selected[s.use] || !s.method && (qualified[s.use] || bare[s.use]) {
			continue
		}
		if entry, ok := allowEntry(s.key); ok {
			matched[entry] = true
			continue
		}
		p := fset.Position(s.pos)
		t.Errorf("%s:%d %s: exported, but no program, example or benchmark probe reaches it; delete it or give unreachedAllowed a reason", p.Filename, p.Line, s.key)
	}
	var entries []string
	for entry := range unreachedAllowed {
		entries = append(entries, entry)
	}
	sort.Strings(entries)
	for _, entry := range entries {
		switch {
		case strings.TrimSpace(unreachedAllowed[entry]) == "":
			t.Errorf("unreachedAllowed[%q] gives no reason", entry)
		case !matched[entry]:
			t.Errorf("unreachedAllowed[%q] excuses no unreached symbol: delete the entry", entry)
		}
	}
	if len(decls) == 0 || len(selected) == 0 {
		t.Fatalf("found %d declarations and %d selector names: the scan no longer sees the source", len(decls), len(selected))
	}
}

// parseSources parses every non-test Go file of the module and of
// benchmark/, testdata and dot directories aside, and hands each to fn.
func parseSources(t *testing.T, fset *token.FileSet, mode parser.Mode, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// spearImports maps the local name of each package of the module that f
// imports to the package's directory; pkgName maps directories to
// package names.
func spearImports(f *ast.File, pkgName map[string]string) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		dir, ok := strings.CutPrefix(path, "spear/")
		if !ok {
			continue
		}
		name := pkgName[dir]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = dir
	}
	return imports
}

// allowEntry returns the unreachedAllowed key that covers the symbol
// key (pkg.Name or pkg.Type.Method): the key itself, its type, the type
// it constructs, or its package.
func allowEntry(key string) (string, bool) {
	parts := strings.Split(key, ".")
	pkg, name := parts[0], parts[1]
	for _, entry := range []string{key, pkg + "." + name, pkg + "." + strings.TrimPrefix(name, "New"), pkg + ".*"} {
		if _, ok := unreachedAllowed[entry]; ok {
			return entry, true
		}
	}
	return "", false
}

// recvType returns the name of a method's receiver type.
func recvType(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if generic, ok := typ.(*ast.IndexExpr); ok {
		typ = generic.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
