package ssadf

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Fn is one analyzable function: a declared function or method of a
// module package. Function literals are not first-class here — their
// bodies are walked as part of the enclosing declaration, which
// over-approximates reachability in the safe direction for every
// analyzer in the catalogue (a closure that is defined but never run
// still counts as reachable code).
type Fn struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Name returns a human-readable qualified name, e.g.
// "(*core.ScalarManager).OnTuple" or "spill.deflate".
func (f *Fn) Name() string {
	pkg := f.Pkg.Types.Name()
	if sig, ok := f.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if n, ok := t.(*types.Named); ok {
			return "(" + ptr + pkg + "." + n.Obj().Name() + ")." + f.Obj.Name()
		}
	}
	return pkg + "." + f.Obj.Name()
}

// EdgeKind distinguishes how a callee is invoked: a synchronous call
// or defer runs on the caller's goroutine (and so inherits blocking
// contracts); a go statement does not.
type EdgeKind int

const (
	CallEdge EdgeKind = iota
	GoEdge
	DeferEdge
)

// CallEdgeTo is one resolved call-graph edge.
type CallEdgeTo struct {
	Callee *Fn
	Kind   EdgeKind
	Site   *ast.CallExpr
}

// funcIndex is the whole-program function table plus the call graph.
type funcIndex struct {
	byObj map[*types.Func]*Fn
	all   []*Fn // deterministic order (package, then file position)

	edges map[*Fn][]CallEdgeTo

	// ifaceCache memoizes CHA resolution per interface method object.
	ifaceCache map[*types.Func][]*Fn

	prog *Program
}

// Funcs builds (once) and returns the program's function index.
func (p *Program) Funcs() *funcIndex {
	if p.funcs != nil {
		return p.funcs
	}
	idx := &funcIndex{
		byObj:      map[*types.Func]*Fn{},
		edges:      map[*Fn][]CallEdgeTo{},
		ifaceCache: map[*types.Func][]*Fn{},
		prog:       p,
	}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fn := &Fn{Obj: obj, Decl: fd, Pkg: pkg}
				idx.byObj[obj] = fn
				idx.all = append(idx.all, fn)
			}
		}
	}
	for _, fn := range idx.all {
		idx.buildEdges(fn)
	}
	p.funcs = idx
	return idx
}

// All returns every declared function in deterministic order.
func (idx *funcIndex) All() []*Fn { return idx.all }

// buildEdges resolves every call expression in fn's body (nested
// function literals included) to module-internal callees.
func (idx *funcIndex) buildEdges(fn *Fn) {
	var walk func(n ast.Node, kind EdgeKind)
	walk = func(root ast.Node, kind EdgeKind) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// The spawned call and everything evaluated for it runs
				// on a new goroutine.
				walk(n.Call, GoEdge)
				return false
			case *ast.DeferStmt:
				walk(n.Call, DeferEdge)
				return false
			case *ast.CallExpr:
				for _, callee := range idx.resolveCall(fn.Pkg, n) {
					idx.edges[fn] = append(idx.edges[fn], CallEdgeTo{Callee: callee, Kind: kind, Site: n})
				}
			}
			return true
		})
	}
	walk(fn.Decl.Body, CallEdge)
}

// resolveCall maps one call expression to the module functions it may
// invoke. Interface method calls resolve via class-hierarchy analysis
// to every module type implementing the interface. Calls through
// function-typed variables are unresolved (documented soundness limit:
// the engine invokes operators through interfaces, not func values, on
// every contract-relevant path).
func (idx *funcIndex) resolveCall(pkg *Package, call *ast.CallExpr) []*Fn {
	info := pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			if fn := idx.byObj[obj]; fn != nil {
				return []*Fn{fn}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return idx.resolveInterface(m)
			}
			if fn := idx.byObj[m]; fn != nil {
				return []*Fn{fn}
			}
			return nil
		}
		// Package-qualified call (pkg.Fn) or method expression.
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if rt := recvType(obj); rt != nil && types.IsInterface(rt) {
				return idx.resolveInterface(obj)
			}
			if fn := idx.byObj[obj]; fn != nil {
				return []*Fn{fn}
			}
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Func); ok {
				if fn := idx.byObj[obj]; fn != nil {
					return []*Fn{fn}
				}
			}
		}
	}
	return nil
}

// recvType returns the receiver type of a method object (nil for plain
// functions).
func recvType(obj *types.Func) types.Type {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// resolveInterface returns every module method that may satisfy a call
// to interface method m (class-hierarchy analysis over all named
// module types).
func (idx *funcIndex) resolveInterface(m *types.Func) []*Fn {
	if out, ok := idx.ifaceCache[m]; ok {
		return out
	}
	var out []*Fn
	rt := recvType(m)
	iface, _ := rt.Underlying().(*types.Interface)
	if iface == nil {
		idx.ifaceCache[m] = nil
		return nil
	}
	for _, named := range idx.prog.namedTypes() {
		t := named
		pt := types.NewPointer(named)
		if types.IsInterface(t) {
			continue
		}
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, m.Pkg(), m.Name())
		if f, ok := obj.(*types.Func); ok {
			if fn := idx.byObj[f]; fn != nil {
				out = append(out, fn)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	idx.ifaceCache[m] = out
	return out
}

// namedTypes returns every named (non-alias) type declared in module
// packages, cached on the Program.
func (p *Program) namedTypes() []*types.Named {
	if p.named != nil {
		return p.named
	}
	for _, pkg := range p.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				p.named = append(p.named, n)
			}
		}
	}
	return p.named
}

// Edges returns fn's resolved outgoing edges.
func (idx *funcIndex) Edges(fn *Fn) []CallEdgeTo { return idx.edges[fn] }

// lookupInterface finds a named interface by module-relative package
// dir suffix and type name, e.g. ("internal/checkpoint",
// "Snapshotter"). Returns nil when absent (fixture programs may not
// declare it).
func (p *Program) lookupInterface(relSuffix, name string) *types.Interface {
	for _, pkg := range p.Pkgs {
		if pkg.Types == nil {
			continue
		}
		if pkg.Rel == relSuffix || strings.HasSuffix(pkg.Rel, "/"+relSuffix) {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
	}
	return nil
}
