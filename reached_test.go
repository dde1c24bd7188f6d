package spear

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	"tuple.Value.AsInt":                "the reader of the int kind spear.Int constructs",
	"tuple.Value.AsBool":               "the reader of the bool kind spear.Bool constructs",
}

// publicUnreachedAllowed names the exported symbols of package spear
// that no program calls and that stay anyway, each with its reason.
// Keys are "spear.Name" or "spear.Type.Method".
var publicUnreachedAllowed = map[string]string{
	"spear.Int":                   "the int tuple kind's constructor, beside Float and Str",
	"spear.Bool":                  "the bool tuple kind's constructor, beside Float and Str",
	"spear.CustomFunc":            "the type of CustomAgg's parameter",
	"spear.Snapshot":              "the name of what Instruments.Snapshot returns",
	"spear.TraceEvent":            "the name of what the trace ring behind Instruments records",
	"spear.Query.Count":           "one of DESIGN §1 row 8's aggregates",
	"spear.Query.Variance":        "one of DESIGN §1 row 8's aggregates",
	"spear.Query.StdDev":          "one of DESIGN §1 row 8's aggregates",
	"spear.Query.CheckpointEvery": "the barrier snapshots of DESIGN §10's fault tolerance",
	"spear.Query.Recover":         "the resume from a checkpoint of DESIGN §10's fault tolerance",
}

// TestEveryExportedSymbolIsReached: every exported symbol under
// internal/ is named by a non-test file of the module or of benchmark/
// (whose layer probes import internal/), and every exported symbol of
// package spear by a program — a command, an example, the experiment
// harness (internal/bench) or the benchmark — or it has an
// unreachedAllowed or publicUnreachedAllowed entry. See unreachedSymbols
// for what counts as a use. An allow entry that excuses nothing fails
// too, so the lists cannot go stale.
func TestEveryExportedSymbolIsReached(t *testing.T) {
	fset, files := parseSources(t)
	decls, unreached, used := unreachedSymbols(files, unreachedAllowed, publicUnreachedAllowed)
	for _, s := range unreached {
		p := fset.Position(s.pos)
		if s.public {
			t.Errorf("%s:%d %s: exported, but no command, example or benchmark uses it; delete it or give publicUnreachedAllowed a reason", p.Filename, p.Line, s.key)
		} else {
			t.Errorf("%s:%d %s: exported, but no program, example or benchmark probe reaches it; delete it or give unreachedAllowed a reason", p.Filename, p.Line, s.key)
		}
	}
	for _, p := range allowProblems("unreachedAllowed", unreachedAllowed, used) {
		t.Error(p)
	}
	for _, p := range allowProblems("publicUnreachedAllowed", publicUnreachedAllowed, used) {
		t.Error(p)
	}
	if decls == 0 {
		t.Fatal("found no exported declarations: the scan no longer sees the source")
	}
}

// TestReachedGuardCatchesPlants runs the scan of
// TestEveryExportedSymbolIsReached over a planted root package and a
// program: a root export that only the package itself uses is reported,
// and so is a method the program never calls; a name the program
// qualifies and a method it calls are not, and an entry that excuses a
// reached symbol is stale.
func TestReachedGuardCatchesPlants(t *testing.T) {
	fset := token.NewFileSet()
	var files []sourceFile
	for dir, src := range map[string]string{
		".": `package spear
type Query struct{}
func (Query) Called()  {}
func (Query) Dead()    {}
func (Query) Field()   {}
func Used() Query      { Unused(); return Query{} }
func Unused()          {}
func Kept()            {}`,
		"cmd/user": `package main
import "spear"
func main() {
	var q spear.Query = spear.Used()
	q.Called()
	var s struct{ Field int }
	_ = s.Field
}`,
	} {
		f, err := parser.ParseFile(fset, dir+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, sourceFile{dir: dir, f: f})
	}
	public := map[string]string{"spear.Kept": "kept", "spear.Used": "stale"}
	decls, unreached, used := unreachedSymbols(files, map[string]string{}, public)
	var keys []string
	for _, s := range unreached {
		keys = append(keys, s.key)
	}
	sort.Strings(keys)
	if decls != 7 || strings.Join(keys, " ") != "spear.Query.Dead spear.Query.Field spear.Unused" || used["spear.Used"] || !used["spear.Kept"] {
		t.Errorf("%d declarations, unreached %v, used %v; want 7, [spear.Query.Dead spear.Query.Field spear.Unused], [spear.Kept]", decls, keys, used)
	}
}

// exported is an exported declaration: its allow key ("pkg.Name" or
// "pkg.Type.Method"), the name a use is looked up by ("dir.Name" for a
// package-level name, "Method" for a method), and whether it belongs to
// package spear, whose symbols only programs reach.
type exported struct {
	key    string
	use    string
	method bool
	public bool
	pos    token.Pos
}

// unreachedSymbols counts the exported declarations of internal/ and of
// package spear in files, and returns those that nothing reaches and the
// allow lists do not excuse, and the allow entries that excuse something.
//
// An internal package-level name is reached when any file uses it
// qualified through its import name, or bare inside its own package
// (receivers aside). An internal method is reached when any selector or
// interface method has its name: a shared name can hide a dead method,
// but a live one is never flagged. A symbol of package spear counts
// only programs' uses (isProgram): a package-level name must be
// qualified there, and a method called by name, x.Method(…), so that a
// field or a value that shares the name does not keep it.
func unreachedSymbols(files []sourceFile, allowed, public map[string]string) (decls int, unreached []exported, used map[string]bool) {
	pkgName := map[string]string{} // dir → package name
	for _, fl := range files {
		pkgName[fl.dir] = fl.f.Name.Name
	}

	var syms []exported
	declared := map[token.Pos]bool{} // declaring identifiers are not uses
	for _, fl := range files {
		isPublic := fl.dir == "."
		if !isPublic && !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		pkg := fl.f.Name.Name
		add := func(id *ast.Ident) {
			declared[id.Pos()] = true
			if id.IsExported() {
				syms = append(syms, exported{key: pkg + "." + id.Name, use: fl.dir + "." + id.Name, public: isPublic, pos: id.Pos()})
			}
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				} else if typ := recvType(d.Recv); ast.IsExported(typ) && d.Name.IsExported() {
					syms = append(syms, exported{key: pkg + "." + typ + "." + d.Name.Name, use: d.Name.Name, method: true, public: isPublic, pos: d.Name.Pos()})
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

	qualified := map[string]bool{}     // dir.Name used as pkg.Name
	bare := map[string]bool{}          // dir.Name used inside its own package
	selected := map[string]bool{}      // names of selectors and interface methods
	progQualified := map[string]bool{} // dir.Name used as pkg.Name by a program
	progCalled := map[string]bool{}    // names a program calls as x.Name(…)
	for _, fl := range files {
		imports := spearImports(fl.f, pkgName)
		program := isProgram(fl.dir)
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
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && program {
					progCalled[sel.Sel.Name] = true
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						qualified[dir+"."+n.Sel.Name] = true
						if program {
							progQualified[dir+"."+n.Sel.Name] = true
						}
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

	used = map[string]bool{}
	for _, s := range syms {
		var reached bool
		lists := allowed
		switch {
		case s.public && s.method:
			reached, lists = progCalled[s.use], public
		case s.public:
			reached, lists = progQualified[s.use], public
		case s.method:
			reached = selected[s.use]
		default:
			reached = qualified[s.use] || bare[s.use]
		}
		if reached {
			continue
		}
		if entry, ok := allowEntry(lists, s.key); ok {
			used[entry] = true
			continue
		}
		unreached = append(unreached, s)
	}
	return len(syms), unreached, used
}

// isProgram reports whether dir holds a program's code: a command, an
// example, the experiment harness or the benchmark.
func isProgram(dir string) bool {
	for _, p := range []string{"cmd", "examples", "internal/bench", "benchmark"} {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

// sourceFile is a parsed file, its path and its directory relative to
// the root.
type sourceFile struct {
	dir, path string
	f         *ast.File
}

// parsed holds what parseSources parsed, once for every guard.
var parsed struct {
	once  sync.Once
	fset  *token.FileSet
	files []sourceFile
	err   error
}

// parseSources parses every non-test Go file that goFiles lists, once
// for every guard in the run.
func parseSources(t *testing.T) (*token.FileSet, []sourceFile) {
	t.Helper()
	parsed.once.Do(func() {
		parsed.fset = token.NewFileSet()
		var paths []string
		paths, parsed.err = goFiles()
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(parsed.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				parsed.err = err
				break
			}
			parsed.files = append(parsed.files, sourceFile{filepath.ToSlash(filepath.Dir(path)), filepath.ToSlash(path), f})
		}
	})
	if parsed.err != nil {
		t.Fatal(parsed.err)
	}
	return parsed.fset, parsed.files
}

// goFiles lists every Go file of the module and of benchmark/, test
// files included, testdata and dot directories aside.
func goFiles() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	return paths, err
}

// allowProblems returns what is wrong with the allowlist called name:
// each entry that gives no reason, and each that excuses nothing, used
// holding those that excused something. Every guard's allowlist answers
// to it, so that none can go stale.
func allowProblems(name string, allowed map[string]string, used map[string]bool) []string {
	var out []string
	for entry, why := range allowed {
		switch {
		case strings.TrimSpace(why) == "":
			out = append(out, fmt.Sprintf("%s[%q] gives no reason", name, entry))
		case !used[entry]:
			out = append(out, fmt.Sprintf("%s[%q] excuses nothing: delete the entry", name, entry))
		}
	}
	sort.Strings(out)
	return out
}

// spearImports maps the local name of each package of the module that f
// imports to the package's directory; pkgName maps directories to
// package names.
func spearImports(f *ast.File, pkgName map[string]string) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		dir, ok := strings.CutPrefix(path, "spear/")
		if path == "spear" {
			dir, ok = ".", true
		}
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

// allowEntry returns the key of allowed that covers the symbol key
// (pkg.Name or pkg.Type.Method): the key itself, its type, the type it
// constructs, or its package.
func allowEntry(allowed map[string]string, key string) (string, bool) {
	parts := strings.Split(key, ".")
	pkg, name := parts[0], parts[1]
	for _, entry := range []string{key, pkg + "." + name, pkg + "." + strings.TrimPrefix(name, "New"), pkg + ".*"} {
		if _, ok := allowed[entry]; ok {
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
