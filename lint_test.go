package spear

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// lintAllowed excuses the findings of the source checks that stay, each
// with its reason. A key is "check file Func": the check's name, the
// file's path and the function or method ("Type.Method") that holds the
// finding, so an entry does not move with the lines around it.
var lintAllowed = map[string]string{
	"eventtime internal/core/config.go Config.clock":     "the telemetry clock's default; event-time logic never calls it",
	"globalrand internal/sample/dict.go NewKeyDict":      "ids are issued in insertion order, so the seed only places slots",
	"goroutine-discipline benchmark/run.go prepared.run": "run joins it: it receives exactly one error per shard server from shardErr before returning",
}

// lintChecks are the source checks of DESIGN §9.1. Each reports a
// finding by its position and message.
var lintChecks = []struct {
	name string
	run  func(p *lintPkg, report func(token.Pos, string))
}{
	{"globalrand", checkGlobalRand},
	{"goroutine-discipline", checkGoroutines},
	{"eventtime", checkEventTime},
	{"floatcmp", checkFloatCmp},
	{"errcheck-lite", checkErrcheck},
}

// eventTimeScope lists the packages whose logic is defined over event
// time. A wall-clock read there silently turns event-time semantics into
// processing-time semantics: results stop being reproducible from a
// recorded stream, and watermark reasoning breaks.
var eventTimeScope = []string{"internal/window", "internal/watermark", "internal/core", "internal/spe"}

// floatCmpScope lists the numeric kernels where float equality is a
// correctness smell: the estimators and statistics SPEAr's guarantees
// rest on.
var floatCmpScope = []string{"internal/stats", "internal/core"}

// TestRepoClean runs every source check over the files parseSources
// parses: each finding needs a lintAllowed entry, each entry a reason
// and a finding it excuses, and each directory of a check's scope a
// package the walk parsed, so that a renamed package cannot leave a
// check looking at nothing.
func TestRepoClean(t *testing.T) {
	_, _, pkgs := parseSources(t)
	used := map[string]bool{}
	for _, f := range runLint(pkgs) {
		if _, ok := lintAllowed[f.key]; ok {
			used[f.key] = true
			continue
		}
		t.Errorf("%s; fix it or give lintAllowed[%q] a reason", f, f.key)
	}
	for _, p := range allowProblems("lintAllowed", lintAllowed, used) {
		t.Error(p)
	}
	for _, dir := range unscanned(pkgs, eventTimeScope, floatCmpScope) {
		t.Errorf("scope entry %s holds no package the walk parsed", dir)
	}
}

// lintPkg is one package as every guard sees it: the non-test files of
// one directory under one package clause, type-checked.
type lintPkg struct {
	dir, name string // module-relative directory, package clause
	fset      *token.FileSet
	files     []*ast.File
	types     *types.Package
	// info holds what the checker inferred, one Info for every package
	// typeCheck checked together. An import of the module resolves to
	// its checked package, so an operand or a selector of another
	// package has its type; the standard library's packages are empty
	// stubs, so whatever comes from them is invalid, and where info is
	// missing a check stays silent, never wrong.
	info *types.Info
}

// lintFinding is a check's finding: its lintAllowed key, its position
// and its message.
type lintFinding struct {
	key string
	pos token.Position
	msg string
}

func (f lintFinding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.pos.Filename, f.pos.Line, strings.Fields(f.key)[0], f.msg)
}

// typeCheck groups files by directory and package clause and
// type-checks each group into one Info, a package before those that
// import it: an import of the module ("spear", "spear/<dir>") resolves
// to the group of its directory, else to the package of tree there, and
// any other import to an empty, complete package, so that the checker
// needs no compiled export data and go.mod no dependency. The checker's
// errors, which the stubs make certain, are discarded: partial type
// information beats none.
func typeCheck(fset *token.FileSet, files []sourceFile, tree []*lintPkg) []*lintPkg {
	var pkgs []*lintPkg
	byDir := map[string]*lintPkg{}
	for _, p := range tree {
		byDir[p.dir] = p
	}
	byClause := map[string]*lintPkg{}
	for _, fl := range files {
		key := fl.dir + " " + fl.f.Name.Name
		p := byClause[key]
		if p == nil {
			p = &lintPkg{dir: fl.dir, name: fl.f.Name.Name, fset: fset}
			byClause[key] = p
			byDir[fl.dir] = p
			pkgs = append(pkgs, p)
		}
		p.files = append(p.files, fl.f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var check func(p *lintPkg) *types.Package
	conf := types.Config{Error: func(error) {}, Importer: importer(func(path string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(path, "spear/")
		if path == "spear" {
			dir, ok = ".", true
		}
		if p := byDir[dir]; ok && p != nil {
			return check(p), nil
		}
		stub := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
		stub.MarkComplete()
		return stub, nil
	})}
	check = func(p *lintPkg) *types.Package {
		if p.types == nil {
			path := "spear"
			if p.dir != "." {
				path += "/" + p.dir
			}
			p.types, p.info = types.NewPackage(path, p.name), info
			_ = types.NewChecker(&conf, fset, p.types, info).Files(p.files) // the stubs make errors certain
		}
		return p.types
	}
	for _, p := range pkgs {
		check(p)
	}
	return pkgs
}

// importer is a types.Importer made of a function.
type importer func(path string) (*types.Package, error)

func (f importer) Import(path string) (*types.Package, error) { return f(path) }

// runLint runs the checks named by only, or every check, over pkgs.
func runLint(pkgs []*lintPkg, only ...string) []lintFinding {
	var out []lintFinding
	for _, c := range lintChecks {
		if len(only) > 0 && !slices.Contains(only, c.name) {
			continue
		}
		for _, p := range pkgs {
			c.run(p, func(at token.Pos, msg string) {
				pos := p.fset.Position(at)
				key := c.name + " " + pos.Filename
				if fn := enclosingFunc(p, at); fn != "" {
					key += " " + fn
				}
				out = append(out, lintFinding{key, pos, msg})
			})
		}
	}
	return out
}

// enclosingFunc names the function, or "Type.Method", of p that holds
// at; "" outside any.
func enclosingFunc(p *lintPkg, at token.Pos) string {
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= at && at < fd.End() {
				if fd.Recv != nil {
					return recvIdent(fd.Recv).Name + "." + fd.Name.Name
				}
				return fd.Name.Name
			}
		}
	}
	return ""
}

// unscanned returns the entries of scopes under which no package of pkgs
// lies.
func unscanned(pkgs []*lintPkg, scopes ...[]string) []string {
	var out []string
	for _, scope := range scopes {
		for _, dir := range scope {
			if !slices.ContainsFunc(pkgs, func(p *lintPkg) bool { return inScope(p.dir, dir) }) {
				out = append(out, dir)
			}
		}
	}
	return out
}

// inScope reports whether dir equals or lies under one of scope.
func inScope(dir string, scope ...string) bool {
	return slices.ContainsFunc(scope, func(s string) bool { return dir == s || strings.HasPrefix(dir, s+"/") })
}

// importName returns the name under which f imports path ("_" and "."
// included), "" if it does not.
func importName(f *ast.File, path string) string {
	for _, im := range f.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == path {
			if im.Name != nil {
				return im.Name.Name
			}
			return p[strings.LastIndex(p, "/")+1:]
		}
	}
	return ""
}

// randConstructors are the math/rand names that do not touch the
// package-level source: what an injected generator is built from.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

// checkGlobalRand: library code never uses math/rand's package-level
// source. The source is locked, a contention point on hot paths, and
// cannot be seeded per component, so runs stop being reproducible;
// samplers take a seeded *rand.Rand (sample.DeriveSeed) instead. Nor
// does it draw a per-process seed from maphash.MakeSeed, which no run
// can replay. Package main is exempt.
func checkGlobalRand(p *lintPkg, report func(token.Pos, string)) {
	if p.name == "main" {
		return
	}
	for _, f := range p.files {
		rnd := map[string]bool{importName(f, "math/rand"): true, importName(f, "math/rand/v2"): true}
		delete(rnd, "")
		hash := importName(f, "hash/maphash")
		if len(rnd) == 0 && hash == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			seed := ok && id.Name == hash && sel.Sel.Name == "MakeSeed"
			if !ok || !seed && (!rnd[id.Name] || randConstructors[sel.Sel.Name]) {
				return true
			}
			if obj := p.info.Uses[id]; obj != nil {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return true // a local name shadows the package
				}
			}
			if seed {
				report(sel.Pos(), fmt.Sprintf("%s.MakeSeed draws a per-process seed no run can replay; derive one from the query's seed (sample.DeriveSeed)", id.Name))
			} else {
				report(sel.Pos(), fmt.Sprintf("%s.%s uses math/rand's global source; inject a seeded *rand.Rand (sample.DeriveSeed) for determinism and to avoid the global lock", id.Name, sel.Sel.Name))
			}
			return true
		})
	}
}

// checkGoroutines: a go func literal shows lifecycle discipline, so that
// something can prove it exits. Its body calls X.Done() or X.Wait(),
// closes a channel, receives from one, or ranges over one. A goroutine
// of a named function (go m.loop()) is not inspected.
func checkGoroutines(p *lintPkg, report func(token.Pos, string)) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if fl, ok := g.Call.Fun.(*ast.FuncLit); ok && !disciplined(p, fl) {
					report(g.Pos(), "goroutine has no lifecycle discipline (no WaitGroup Done/Wait, channel close, receive, or channel range); it can leak past shutdown")
				}
			}
			return true
		})
	}
}

// disciplined reports whether fl's body holds a completion or shutdown
// construct.
func disciplined(p *lintPkg, fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		found = found || signals(p, n)
		return !found
	})
	return found
}

// signals reports whether n is a call of X.Done, X.Wait or close, a
// receive, or a range over a channel.
func signals(p *lintPkg, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		if fun, ok := n.Fun.(*ast.SelectorExpr); ok {
			return fun.Sel.Name == "Done" || fun.Sel.Name == "Wait"
		}
		fun, ok := n.Fun.(*ast.Ident)
		return ok && fun.Name == "close"
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.RangeStmt:
		if tv, ok := p.info.Types[n.X]; ok && tv.Type != nil {
			_, isChan := tv.Type.Underlying().(*types.Chan)
			return isChan
		}
	}
	return false
}

// checkEventTime: the packages of eventTimeScope never mention time.Now,
// called or not. Telemetry that needs a wall clock takes an injected one
// (core.Config.Clock).
func checkEventTime(p *lintPkg, report func(token.Pos, string)) {
	if !inScope(p.dir, eventTimeScope...) {
		return
	}
	for _, f := range p.files {
		alias := importName(f, "time")
		if alias == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == alias {
					report(sel.Pos(), "time.Now in an event-time package; event-time logic must never read the wall clock — inject a clock (core.Config.Clock) instead")
				}
			}
			return true
		})
	}
}

// checkFloatCmp: the packages of floatCmpScope compare no two computed
// floats with == or !=; differing summation orders make identity
// meaningless, which is how accuracy math silently takes the wrong
// branch. A compile-time constant operand (x == 0) is exempt: an exact
// sentinel is intended.
func checkFloatCmp(p *lintPkg, report func(token.Pos, string)) {
	if !inScope(p.dir, floatCmpScope...) {
		return
	}
	isFloat := func(t types.Type) bool {
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			x, xok := p.info.Types[be.X]
			y, yok := p.info.Types[be.Y]
			if xok && yok && x.Value == nil && y.Value == nil && (isFloat(x.Type) || isFloat(y.Type)) {
				report(be.OpPos, "float equality between computed expressions; compare with an epsilon (math.Abs(a-b) <= eps) or give lintAllowed a reason")
			}
			return true
		})
	}
}

// isDecoder reports whether fn is one of errcheck-lite's codec targets:
// an exported function under internal/ whose name starts with Decode and
// whose last result is an error, the only sign that its bytes were
// damaged.
func isDecoder(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	return sig.Recv() == nil && fn.Exported() && strings.HasPrefix(fn.Name(), "Decode") && strings.HasPrefix(fn.Pkg().Path(), "spear/internal/") &&
		res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}

// spillMethods are the SpillStore operations whose errors errcheck-lite
// holds: a swallowed one loses archived tuples the exact fallback needs.
var spillMethods = map[string]bool{"Store": true, "Get": true, "Delete": true}

// checkErrcheck: no error of a decoder, or of a spill store's Store, Get
// or Delete, is dropped: a swallowed ErrCorrupt turns damaged bytes into
// a wrong window result. Dropped means called as a statement, with go or
// defer, or with the error position assigned to _. A decoder is matched
// by its object; store methods by name, in files that import
// internal/storage and in that package, so that a wrapper of another
// package (spill.Plane) is held too.
func checkErrcheck(p *lintPkg, report func(token.Pos, string)) {
	for _, f := range p.files {
		storage := p.dir == "internal/storage" || importName(f, "spear/internal/storage") != ""
		check := func(at ast.Node, call *ast.CallExpr) {
			desc := ""
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if fn, ok := p.info.Uses[fun.Sel].(*types.Func); ok && isDecoder(fn) {
					desc = fn.Pkg().Name() + "." + fn.Name()
				} else if storage && spillMethods[fun.Sel.Name] {
					desc = "." + fun.Sel.Name
				}
			case *ast.Ident:
				if fn, ok := p.info.Uses[fun].(*types.Func); ok && isDecoder(fn) {
					desc = fn.Name()
				}
			}
			if desc != "" {
				report(at.Pos(), fmt.Sprintf("error returned by %s is dropped; spill/codec failures must be handled or propagated", desc))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(n, call)
				}
			case *ast.GoStmt:
				check(n, n.Call)
			case *ast.DeferStmt:
				check(n, n.Call)
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					break
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if last, isID := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && isID && last.Name == "_" {
					check(n, call)
				}
			}
			return true
		})
	}
}

// The fixtures under testdata/lint/<check> show what each check flags:
// every finding of the check over its fixture, loaded as a package of the
// directory given, matches a // want "substring" on its line, and every
// annotation a finding.
func TestGlobalRand(t *testing.T) { checkFixture(t, "globalrand", "internal/fixture") }
func TestGoroutineDiscipline(t *testing.T) {
	checkFixture(t, "goroutine-discipline", "internal/fixture")
}
func TestEventTime(t *testing.T)    { checkFixture(t, "eventtime", "internal/window") }
func TestFloatCmp(t *testing.T)     { checkFixture(t, "floatcmp", "internal/stats") }
func TestErrcheckLite(t *testing.T) { checkFixture(t, "errcheck-lite", "internal/fixture") }

func TestGlobalRandSkipsPackageMain(t *testing.T) {
	p, _ := fixture(t, "globalrand", "internal/fixture")
	p.name = "main" // a program, not a library
	if fs := runLint([]*lintPkg{p}, "globalrand"); len(fs) != 0 {
		t.Errorf("package main should be exempt, got %v", fs)
	}
}

func TestEventTimeOutOfScope(t *testing.T) {
	p, _ := fixture(t, "eventtime", "internal/transport")
	if fs := runLint([]*lintPkg{p}, "eventtime"); len(fs) != 0 {
		t.Errorf("out-of-scope package should be clean, got %v", fs)
	}
}

// wantRe matches a fixture's expectation: // want "substring".
var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

// fixture parses testdata/lint/<check> as the package in dir, and
// returns it with its lines by path.
func fixture(t *testing.T, check, dir string) (*lintPkg, map[string][]string) {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join("testdata", "lint", check, "*.go"))
	return parsePkg(t, dir, paths, func(_, src string) string { return src })
}

// parsePkg reads the files at paths, passes each source through edit,
// and parses them as one package in dir, type-checked against the
// tree's packages. It returns the package and its lines by path.
func parsePkg(t *testing.T, dir string, paths []string, edit func(path, src string) string) (*lintPkg, map[string][]string) {
	t.Helper()
	_, _, tree := parseSources(t)
	fset := token.NewFileSet()
	var files []sourceFile
	lines := map[string][]string{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := edit(path, string(b))
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, sourceFile{dir, path, f})
		lines[path] = strings.Split(src, "\n")
	}
	pkgs := typeCheck(fset, files, tree)
	if len(pkgs) != 1 {
		t.Fatalf("%s: %d packages, want 1", dir, len(pkgs))
	}
	return pkgs[0], lines
}

func checkFixture(t *testing.T, check, dir string) {
	t.Helper()
	p, lines := fixture(t, check, dir)
	want := map[string]string{} // path:line → substring
	for path, ls := range lines {
		for i, l := range ls {
			if m := wantRe.FindStringSubmatch(l); m != nil {
				want[fmt.Sprintf("%s:%d", path, i+1)] = m[1]
			}
		}
	}
	for _, f := range runLint([]*lintPkg{p}, check) {
		at := fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line)
		if sub, ok := want[at]; ok && strings.Contains(f.msg, sub) {
			delete(want, at)
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for at, sub := range want {
		t.Errorf("%s: missing %s finding containing %q", at, check, sub)
	}
}

// seed is one mutation of a real source file: in the file named file,
// inject replaces anchor.
type seed struct{ file, anchor, inject string }

// TestAnalyzersCatchSeededMutations holds each check to the real code,
// not only its fixture: each reports one violation of its contract
// seeded, in memory, into a package it guards, and nothing else. The
// allowlist is not applied, so eventtime's case seeds nothing: it is
// Config.clock's time.Now, which only lintAllowed excuses.
func TestAnalyzersCatchSeededMutations(t *testing.T) {
	for _, c := range []struct {
		name, check, dir string
		seeds            []seed
		line, sub        string
	}{
		// Not internal/sample: KeyDict's allowed MakeSeed is a finding there.
		{"globalrand", "globalrand", "internal/stats",
			[]seed{{"describe.go", "import (\n\t\"math\"\n\t\"sort\"\n)\n\n", "import (\n\t\"math\"\n\t\"math/rand\"\n\t\"sort\"\n)\n\nvar _ = rand.Intn(3)\n\n"}},
			"var _ = rand.Intn(3)", "global source"},
		// A per-process hash seed in the CountMin baseline.
		{"globalrand_makeseed", "globalrand", "internal/sketch",
			[]seed{
				{"countmin.go", "\t\"fmt\"\n", "\t\"fmt\"\n\t\"hash/maphash\"\n"},
				{"countmin.go", "func (c *CountMin) bucket(", "var _ = maphash.MakeSeed()\n\nfunc (c *CountMin) bucket("},
			},
			"var _ = maphash.MakeSeed()", "MakeSeed draws a per-process seed"},
		{"goroutine-discipline", "goroutine-discipline", "internal/stats",
			[]seed{{"welford.go", "func (w *Welford) Merge(o Welford) {\n", "func (w *Welford) Merge(o Welford) {\n\tgo func() { _ = o.n }()\n"}},
			"go func() { _ = o.n }()", "no lifecycle discipline"},
		{"eventtime", "eventtime", "internal/core", nil, "return time.Now", "time.Now in an event-time package"},
		// A wall-clock read per tuple in the spout loop of Topology.Run.
		{"eventtime_engine", "eventtime", "internal/spe",
			[]seed{
				{"engine.go", "\t\"math\"\n", "\t\"math\"\n\t\"time\"\n"},
				{"engine.go", "\t\t\t\tout.sendTo(out.route(t), t)\n", "\t\t\t\t_ = time.Now()\n\t\t\t\tout.sendTo(out.route(t), t)\n"},
			},
			"_ = time.Now()", "time.Now in an event-time package"},
		{"floatcmp", "floatcmp", "internal/stats",
			[]seed{{"welford.go", "func (w *Welford) Merge(o Welford) {\n", "func (w *Welford) Merge(o Welford) {\n\tif w.mean == o.mean {\n\t\treturn\n\t}\n"}},
			"if w.mean == o.mean {", "float equality"},
		{"errcheck-lite", "errcheck-lite", "internal/core",
			[]seed{{"archive.go", "ts, err := a.store.Get(pns[i].key)", "ts, _ := a.store.Get(pns[i].key)\n\t\tvar err error"}},
			"ts, _ := a.store.Get(pns[i].key)", "error returned by .Get is dropped"},
		// The shard's decode path of a batch frame.
		{"errcheck-lite_link", "errcheck-lite", "internal/transport",
			[]seed{{"frame.go", "rows, slab, err := tuple.DecodeColumnsInto(", "var err error\n\t\trows, slab, _ := tuple.DecodeColumnsInto("}},
			"rows, slab, _ := tuple.DecodeColumnsInto(dst, slab, r.Rest())", "error returned by tuple.DecodeColumnsInto is dropped"},
		// The recovery path's manifest.
		{"errcheck-lite_recovery", "errcheck-lite", "internal/checkpoint",
			[]seed{{"worker.go", "m, err := DecodeManifest(enc)", "m, _ := DecodeManifest(enc)"}},
			"m, _ := DecodeManifest(enc)", "error returned by DecodeManifest is dropped"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, tree, _ := parseSources(t)
			var paths []string
			for _, fl := range tree {
				if fl.dir == c.dir {
					paths = append(paths, fl.path)
				}
			}
			applied := 0
			p, lines := parsePkg(t, c.dir, paths, func(path, src string) string {
				for _, s := range c.seeds {
					if s.file == filepath.Base(path) {
						if !strings.Contains(src, s.anchor) {
							t.Fatalf("%s: anchor %q not found: the seeded mutation's anchor moved", path, s.anchor)
						}
						src = strings.ReplaceAll(src, s.anchor, s.inject)
						applied++
					}
				}
				return src
			})
			if applied != len(c.seeds) {
				t.Fatalf("%d of %d seeds applied in %s", applied, len(c.seeds), c.dir)
			}
			caught := false
			for _, f := range runLint([]*lintPkg{p}, c.check) {
				if l := strings.TrimSpace(lines[f.pos.Filename][f.pos.Line-1]); l == c.line && strings.Contains(f.msg, c.sub) && !caught {
					t.Logf("caught: %s", f)
					caught = true
					continue
				}
				t.Errorf("unexpected finding: %s", f)
			}
			if !caught {
				t.Errorf("seeded %q not reported (want a %s finding containing %q)", c.line, c.check, c.sub)
			}
		})
	}
}

// TestAllowRequiresReason runs the allowlist rule every guard applies: an
// entry that gives no reason fails, and so does one that excuses nothing.
func TestAllowRequiresReason(t *testing.T) {
	const key = "eventtime internal/core/config.go Config.clock"
	for _, c := range []struct {
		name, why string
		used      bool
		want      string
	}{
		{"withReason", "the telemetry clock's default", true, ""},
		{"noReason", " ", true, `lintAllowed["` + key + `"] gives no reason`},
		{"stale", "the telemetry clock's default", false, `lintAllowed["` + key + `"] excuses nothing: delete the entry`},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := allowProblems("lintAllowed", map[string]string{key: c.why}, map[string]bool{key: c.used})
			if strings.Join(got, "\n") != c.want {
				t.Errorf("got %q, want %q", got, c.want)
			}
		})
	}
}

// TestStaleScopeFails plants a scope entry under which no package lies.
func TestStaleScopeFails(t *testing.T) {
	pkgs := []*lintPkg{{dir: "internal/core"}, {dir: "internal/window/sub"}}
	if got := unscanned(pkgs, []string{"internal/window", "internal/renamed"}, []string{"internal/core"}); strings.Join(got, " ") != "internal/renamed" {
		t.Errorf("unscanned = %v, want [internal/renamed]", got)
	}
}
