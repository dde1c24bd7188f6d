// Package ssadf is spearlint's whole-program dataflow layer: a loader
// that type-checks the entire module with real cross-package type
// information, a per-function control-flow-graph builder, a class-
// hierarchy call graph, and the v2 analyzers that prove the engine's
// resource and concurrency contracts (poolreturn, blockfree).
//
// Where the syntactic spearlint layer (cmd/spearlint) type-checks each
// package in isolation against stub imports, ssadf resolves every
// import for real: module-internal packages are checked in dependency
// order and cached, and standard-library packages are type-checked
// from GOROOT source via go/importer's "source" compiler. That keeps
// the layer on the standard library alone — golang.org/x/tools
// (go/ssa, go/analysis) is the intended foundation but cannot be
// pinned in this build environment (no module proxy access), so the
// package implements the minimal SSA-style subset the two analyzers
// need: def-use tracking of single values over a CFG, reaching-state
// path walks, and whole-program reachability. Swapping the substrate
// for x/tools later only replaces this package's internals; the
// analyzer contracts and fixtures stay.
package ssadf

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked module package.
type Package struct {
	// Path is the full import path ("spear/internal/core").
	Path string
	// Rel is the module-relative directory ("" for the module root).
	Rel string

	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a whole module loaded for analysis: every non-test
// package, type-checked against real imports, in dependency order.
type Program struct {
	Fset    *token.FileSet
	ModPath string
	Root    string
	// Pkgs is in topological order (dependencies first).
	Pkgs []*Package

	// TypeErrors collects best-effort type-check diagnostics. A correct
	// tree produces none; analyzers stay conservative when types are
	// missing rather than trusting partial info.
	TypeErrors []error

	// suppress maps filename → line → analyzer name → true for
	// //lint:ignore directives (see buildSuppressions).
	suppress map[string]map[int]map[string]bool

	funcs *funcIndex     // lazily built function index (see callgraph.go)
	named []*types.Named // lazily built named-type list (see callgraph.go)
}

// Loader owns the FileSet and the standard-library importer. Reusing
// one Loader across Program loads (the driver and the tests both do)
// amortizes the cost of source-importing std packages, which dominates
// a cold load.
type Loader struct {
	fset *token.FileSet
	mu   sync.Mutex
	std  types.ImporterFrom
}

// NewLoader returns a Loader with a fresh FileSet and a GOROOT source
// importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// sharedLoader is the process-wide loader used by LoadShared.
var (
	sharedLoaderOnce sync.Once
	sharedLoader     *Loader
)

// SharedLoader returns a process-global Loader. Tests use it so the
// standard library is source-imported once per test binary, not once
// per fixture.
func SharedLoader() *Loader {
	sharedLoaderOnce.Do(func() { sharedLoader = NewLoader() })
	return sharedLoader
}

// Load parses and type-checks every non-test package under root,
// treating modPath as the module path for intra-module imports.
// Directories named testdata or vendor, hidden directories, and
// underscore-prefixed directories are skipped.
func (l *Loader) Load(root, modPath string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: l.fset, ModPath: modPath, Root: root}

	// Pass 1: parse everything.
	type rawPkg struct {
		pkg     *Package
		imports []string // module-internal import paths
	}
	raw := map[string]*rawPkg{} // import path → package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != root && (base == "testdata" || base == "vendor" ||
			strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		files, perr := l.parseDir(path)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		ipath := modPath
		if rel != "" {
			ipath = modPath + "/" + rel
		}
		rp := &rawPkg{pkg: &Package{Path: ipath, Rel: rel, Files: files}}
		for _, f := range files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					rp.imports = append(rp.imports, p)
				}
			}
		}
		raw[ipath] = rp
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ssadf: %v", err)
	}

	// Pass 2: topological order over module-internal imports (Go
	// forbids cycles; a cycle here means broken code, so fail loudly).
	order := make([]string, 0, len(raw))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("ssadf: import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		rp := raw[p]
		deps := append([]string(nil), rp.imports...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := raw[d]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	// Pass 3: type-check in order with a module-aware importer.
	l.mu.Lock()
	defer l.mu.Unlock()
	checked := map[string]*types.Package{}
	imp := &progImporter{loader: l, checked: checked, prog: prog}
	for _, p := range order {
		rp := raw[p]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{
			Importer: imp,
			Error: func(e error) {
				prog.TypeErrors = append(prog.TypeErrors, e)
			},
		}
		tpkg, _ := conf.Check(p, l.fset, rp.pkg.Files, info) // errors collected above
		rp.pkg.Types = tpkg
		rp.pkg.Info = info
		checked[p] = tpkg
		prog.Pkgs = append(prog.Pkgs, rp.pkg)
	}

	prog.buildSuppressions()
	return prog, nil
}

// parseDir parses every non-test .go file in dir. Multiple package
// clauses in one directory (a main + helper split never used in this
// repo) are rejected to keep the program model simple.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	names := map[string]bool{}
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", filepath.Join(dir, n), err)
		}
		files = append(files, f)
		names[f.Name.Name] = true
	}
	if len(names) > 1 {
		return nil, fmt.Errorf("%s: multiple package clauses", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return l.fset.Position(files[i].Pos()).Filename < l.fset.Position(files[j].Pos()).Filename
	})
	return files, nil
}

// progImporter resolves module-internal paths to already-checked
// packages and everything else through the GOROOT source importer. An
// unresolvable path (a hypothetical external dependency in an offline
// build) degrades to an empty complete package: analyzers see opaque
// types and stay quiet rather than crashing the lint run.
type progImporter struct {
	loader  *Loader
	checked map[string]*types.Package
	prog    *Program
	stubs   map[string]*types.Package
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	return pi.ImportFrom(path, "", 0)
}

func (pi *progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := pi.checked[path]; ok && p != nil {
		return p, nil
	}
	p, err := pi.loader.std.ImportFrom(path, dir, 0)
	if err == nil {
		return p, nil
	}
	if pi.stubs == nil {
		pi.stubs = map[string]*types.Package{}
	}
	if s, ok := pi.stubs[path]; ok {
		return s, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	s := types.NewPackage(path, name)
	s.MarkComplete()
	pi.stubs[path] = s
	pi.prog.TypeErrors = append(pi.prog.TypeErrors,
		fmt.Errorf("ssadf: import %q unresolved (offline build?); analyses degrade to conservative", path))
	return s, nil
}

// buildSuppressions scans every file for the syntactic layer's
// directive (cmd/spearlint's buildSuppressions), so that one syntax
// silences both layers:
//
//	//lint:ignore check1,check2 reason
//
// The directive silences the named analyzers on its own line and on the
// line immediately following, so it can ride inline on a statement or
// stand above it. The reason is mandatory — a directive without one is
// inert, and the repo-clean gate will keep failing, which is exactly the
// pressure the policy wants.
func (p *Program) buildSuppressions() {
	p.suppress = map[string]map[int]map[string]bool{}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "lint:ignore ") {
						continue
					}
					rest := strings.TrimPrefix(text, "lint:ignore ")
					parts := strings.SplitN(rest, " ", 2)
					if len(parts) < 2 || strings.TrimSpace(parts[1]) == "" {
						continue // reason required
					}
					pos := p.Fset.Position(c.Pos())
					byLine := p.suppress[pos.Filename]
					if byLine == nil {
						byLine = map[int]map[string]bool{}
						p.suppress[pos.Filename] = byLine
					}
					for _, name := range strings.Split(parts[0], ",") {
						if name = strings.TrimSpace(name); name == "" {
							continue
						}
						for _, line := range []int{pos.Line, pos.Line + 1} {
							if byLine[line] == nil {
								byLine[line] = map[string]bool{}
							}
							byLine[line][name] = true
						}
					}
				}
			}
		}
	}
}

// Suppressed reports whether analyzer findings at pos are silenced by a
// //lint:ignore directive.
func (p *Program) Suppressed(analyzer string, pos token.Position) bool {
	return p.suppress[pos.Filename][pos.Line][analyzer]
}
