package spear

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
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
	"window.Spec.Overlap":             "the oracle of the assign property",
	"stats.NormalCDF":                 "the oracle of TestNormalQuantileInvertsCDF",
	"sample.CongressAllocate":         "the reference the GroupReservoirs method is compared against",
	"storage.NewFileStore":            "the durable store the multi-process recovery tests share",
	"spe.NewDisorderSpout":            "test support: out-of-order arrival for the engine and integration tests",
	"checkpointtest.*":                "test support: StateDiff, what every TestRoundTrip<Type> compares with",
	"leakcheck.*":                     "test support: the goroutine-leak checks and the lock-free contracts",
	"transport.FaultDialer":           "test support: the dial and connection faults of the transport's recovery tests",
	"sample.Reservoir.Cap":            "test support: the capacity the adaptive-budget tests check",
	"sample.GroupReservoirs.PerGroup": "test support: the per-group capacity the adaptive-budget tests check",
	"sample.KeyDict.Len":              "test support: the live-key count TestKeyDictChurn and the grouped manager's dictionary tests (internal/core/grouped_diff_test.go) check",
	"core.ScalarState.Epsilon":        "an input the paper's estimator hook hands a custom estimator (CustomAgg's estimator)",
	"core.GroupedState.N":             "an input the paper's estimator hook hands a custom estimator (EstimateGroupedWith)",
	"tuple.Value.Equal":               "test support: value comparison in the codec and round-trip tests",
	"tuple.Value.AsInt":               "the reader of the int kind spear.Int constructs",
	"tuple.Value.AsBool":              "the reader of the bool kind spear.Bool constructs",
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
	"spear.Query.Min":             "one of DESIGN §1 row 8's aggregates",
	"spear.Query.Max":             "one of DESIGN §1 row 8's aggregates",
	"spear.Query.CheckpointEvery": "the barrier snapshots of DESIGN §10's fault tolerance",
	"spear.Query.Recover":         "the resume from a checkpoint of DESIGN §10's fault tolerance",
}

// TestEveryExportedSymbolIsReached: every exported symbol under
// internal/ is reached by a non-test file of the module or of
// benchmark/ (whose layer probes import internal/), and every exported
// symbol of package spear by a program — a command, an example, the
// experiment harness (internal/bench) or the benchmark — or it has an
// unreachedAllowed or publicUnreachedAllowed entry. See unreachedSymbols
// for what counts as reaching it. An allow entry that excuses nothing
// fails too, so the lists cannot go stale.
func TestEveryExportedSymbolIsReached(t *testing.T) {
	fset, _, pkgs := parseSources(t)
	decls, unreached, used := unreachedSymbols(pkgs, unreachedAllowed, publicUnreachedAllowed)
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
// TestEveryExportedSymbolIsReached over a planted root package, an
// internal package and a program. Reported: a root export that only the
// package itself uses, a method the program never calls, one that only
// shares its name with a called method of another type, and a field
// that is written and never read. Not reported: a name the program
// qualifies, a method it calls on its type, through an interface the
// type implements or on a generic type's instance, a field it reads and
// a tagged field. An entry that excuses a reached symbol is stale.
func TestReachedGuardCatchesPlants(t *testing.T) {
	pkgs := plant(t, map[string]string{
		".": `package spear
type Query struct{}
func (Query) Called()  {}
func (Query) Dead()    {}
func (Query) Field()   {}
func Used() Query      { Unused(); return Query{} }
func Unused()          {}
func Kept()            {}`,
		"internal/plant": `package plant
type Used struct{ Written, Read int; Tagged int ` + "`json:\"t\"`" + ` }
func (Used) Name()     {}
type Other struct{}
func (Other) Name()    {}
type Runner interface{ Run() }
type Impl struct{}
func (Impl) Run()      {}
type Box[T any] struct{ v T }
func (b Box[T]) Get() T { return b.v }`,
		"cmd/user": `package main
import (
	"spear"
	"spear/internal/plant"
)
func main() {
	var q spear.Query = spear.Used()
	q.Called()
	var s struct{ Field int }
	_ = s.Field
	u := plant.Used{}
	u.Written = u.Read
	u.Name()
	var r plant.Runner = plant.Impl{}
	r.Run()
	_ = plant.Box[int]{}.Get()
	_ = plant.Other{}
}`,
	})
	public := map[string]string{"spear.Kept": "kept", "spear.Used": "stale"}
	decls, unreached, used := unreachedSymbols(pkgs, map[string]string{}, public)
	var keys []string
	for _, s := range unreached {
		keys = append(keys, s.key)
	}
	sort.Strings(keys)
	const want = "plant.Other.Name plant.Used.Written spear.Query.Dead spear.Query.Field spear.Unused"
	if decls != 19 || strings.Join(keys, " ") != want || used["spear.Used"] || !used["spear.Kept"] {
		t.Errorf("%d declarations, unreached %v, used %v; want 19, [%s], [spear.Kept]", decls, keys, used, want)
	}
}

// plant parses and type-checks srcs, one file per directory, as guards
// see the tree.
func plant(t *testing.T, srcs map[string]string) []*lintPkg {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	for dir, src := range srcs {
		f, err := parser.ParseFile(fset, dir+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, sourceFile{dir: dir, f: f})
	}
	return typeCheck(fset, files, nil)
}

// exported is an exported declaration of internal/ or of package spear,
// whose symbols only programs reach: its allow key ("pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field"), its object and the type that
// declares it, if it is a method or a field.
type exported struct {
	key    string
	obj    types.Object
	typ    *types.TypeName
	tagged bool
	public bool
	pos    token.Pos
}

// declarations returns the exported declarations of internal/ and of
// package spear in pkgs: package-level names, the methods and the
// fields (embedded ones aside) of exported types.
func declarations(pkgs []*lintPkg) []exported {
	var out []exported
	for _, p := range pkgs {
		isPublic := p.dir == "."
		if !isPublic && !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		add := func(id *ast.Ident, typ *ast.Ident, tagged bool) {
			obj := p.info.Defs[id]
			if obj == nil || !id.IsExported() {
				return
			}
			s := exported{key: p.name + "." + id.Name, obj: obj, tagged: tagged, public: isPublic, pos: id.Pos()}
			if typ != nil {
				s.key = p.name + "." + typ.Name + "." + id.Name
				s.typ, _ = p.info.ObjectOf(typ).(*types.TypeName)
			}
			out = append(out, s)
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, nil, false)
					} else if typ := recvIdent(d.Recv); typ != nil && typ.IsExported() {
						add(d.Name, typ, false)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, nil, false)
							if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
								for _, fd := range st.Fields.List {
									for _, id := range fd.Names {
										add(id, s.Name, fd.Tag != nil)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, nil, false)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// references returns, for each object the files of pkgs name, the
// directories of the files that name it: written, for a field on the
// left of an assignment or as the key of a struct literal, and read for
// every other use. A receiver does not reach its type, and a
// declaration is no use. A generic instance's members count as their
// origin's.
func references(pkgs []*lintPkg) (read, written map[types.Object]map[string]bool) {
	read, written = map[types.Object]map[string]bool{}, map[types.Object]map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			lhs := map[*ast.Ident]bool{}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Type, visit)
						if n.Body != nil {
							ast.Inspect(n.Body, visit)
						}
						return false
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						if sel, ok := e.(*ast.SelectorExpr); ok {
							lhs[sel.Sel] = true
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						lhs[id] = true
					}
				case *ast.Ident:
					obj := p.info.Uses[n]
					switch o := obj.(type) {
					case *types.Func:
						obj = o.Origin()
					case *types.Var:
						obj = o.Origin()
					}
					dirs := read
					if v, ok := obj.(*types.Var); ok && v.IsField() && lhs[n] {
						dirs = written
					}
					if obj != nil {
						if dirs[obj] == nil {
							dirs[obj] = map[string]bool{}
						}
						dirs[obj][p.dir] = true
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}
	return read, written
}

// unreachedSymbols counts the exported declarations of internal/ and of
// package spear in pkgs, and returns those that nothing reaches and the
// allow lists do not excuse, and the allow entries that excuse something.
//
// A symbol under internal/ is reached by any file, one of package spear
// only by a program (isProgram). A package-level name is reached by a use
// of its object; a field by a read, unless it is tagged, as reflection
// reads it; a method by a use on its own type or a generic instance of
// it, or by a use of an interface method it implements. String and Error
// always count as reached: fmt calls them through fmt.Stringer and
// error, and the stubbed standard library hides those calls.
func unreachedSymbols(pkgs []*lintPkg, allowed, public map[string]string) (decls int, unreached []exported, used map[string]bool) {
	read, _ := references(pkgs)
	reachedBy := func(obj types.Object, public bool) bool {
		for dir := range read[obj] {
			if !public || isProgram(dir) {
				return true
			}
		}
		return false
	}
	ifaceMethods := map[string][]*types.Func{} // interface methods read, by name
	for obj := range read {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods[fn.Name()] = append(ifaceMethods[fn.Name()], fn)
			}
		}
	}
	implemented := func(fn *types.Func, typ *types.TypeName, public bool) bool {
		named, ok := typ.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, m := range ifaceMethods[fn.Name()] {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if reachedBy(m, public) && types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	syms := declarations(pkgs)
	used = map[string]bool{}
	for _, s := range syms {
		lists := allowed
		if s.public {
			lists = public
		}
		fn, isMethod := s.obj.(*types.Func)
		switch {
		case s.tagged, reachedBy(s.obj, s.public):
			continue
		case isMethod && s.typ != nil && (fn.Name() == "String" || fn.Name() == "Error" || implemented(fn, s.typ, s.public)):
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

// parsed holds what parseSources parsed and type-checked, once for
// every guard.
var parsed struct {
	once  sync.Once
	fset  *token.FileSet
	files []sourceFile
	pkgs  []*lintPkg
	err   error
}

// parseSources parses every non-test Go file that goFiles lists and
// type-checks the packages they make up (typeCheck), once for every
// guard in the run.
func parseSources(t *testing.T) (*token.FileSet, []sourceFile, []*lintPkg) {
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
				return
			}
			parsed.files = append(parsed.files, sourceFile{filepath.ToSlash(filepath.Dir(path)), filepath.ToSlash(path), f})
		}
		parsed.pkgs = typeCheck(parsed.fset, parsed.files, nil)
	})
	if parsed.err != nil {
		t.Fatal(parsed.err)
	}
	return parsed.fset, parsed.files, parsed.pkgs
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

// recvIdent returns the name of a method's receiver type.
func recvIdent(recv *ast.FieldList) *ast.Ident {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch generic := typ.(type) {
	case *ast.IndexExpr:
		typ = generic.X
	case *ast.IndexListExpr:
		typ = generic.X
	}
	id, _ := typ.(*ast.Ident)
	return id
}
