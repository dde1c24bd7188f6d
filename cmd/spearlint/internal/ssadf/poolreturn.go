package ssadf

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerPoolreturn proves the pooled-buffer discipline the batched
// dataflow depends on: a value obtained from a sync.Pool (directly via
// (*sync.Pool).Get, or through a module wrapper that returns a Get
// result, like col.Get) must, on every path to a normal function
// return, either be Put back (directly or through a wrapper that Puts
// a parameter) or escape the function — returned, sent on a channel,
// stored through a field/index, or handed to another function that
// takes ownership. A path that simply drops the value does not crash;
// it silently degrades the pool hit rate until the steady-state hot
// path allocates per batch again, which is exactly the regression the
// PR-3 vectorized dataflow's ≤0.11 allocs/tuple budget cannot absorb.
//
// The analysis is per-function and path-sensitive over the CFG:
// `defer pool.Put(x)` releases every exit after the defer statement
// executes; panic exits are exempt (a panicking path abandons its
// buffer to the collector by design); aliasing (`y := x`) and any use
// the tracker cannot prove harmless count as escapes, so the check
// errs toward silence, never toward a false leak report.
var AnalyzerPoolreturn = &Analyzer{
	Name: "poolreturn",
	Doc:  "sync.Pool.Get result that can reach a return without Put or escape (pool leak)",
	Run:  runPoolreturn,
}

// poolFns indexes direct and wrapper Get/Put functions.
type poolFns struct {
	getWrappers map[*types.Func]bool // module funcs returning a Get result
	putWrappers map[*types.Func]int  // module funcs Putting a param → param index
}

func runPoolreturn(prog *Program) []Finding {
	idx := prog.Funcs()
	pf := findPoolFns(prog, idx)

	var out []Finding
	for _, fn := range idx.All() {
		bodies := []*ast.BlockStmt{fn.Decl.Body}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				bodies = append(bodies, fl.Body)
				return false
			}
			return true
		})
		for _, body := range bodies {
			out = append(out, checkPoolBody(prog, fn.Pkg, pf, body)...)
		}
	}
	return out
}

// isDirectPoolCall reports whether call invokes (*sync.Pool).<name>.
func isDirectPoolCall(pkg *Package, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	m, ok := s.Obj().(*types.Func)
	if !ok || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return false
	}
	rt := recvType(m)
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	n, ok := rt.(*types.Named)
	return ok && n.Obj().Name() == "Pool"
}

// findPoolFns discovers first-order module wrappers around Get/Put.
func findPoolFns(prog *Program, idx *funcIndex) *poolFns {
	pf := &poolFns{getWrappers: map[*types.Func]bool{}, putWrappers: map[*types.Func]int{}}
	for _, fn := range idx.All() {
		pkg := fn.Pkg
		// Get wrapper: some return statement's result contains a
		// direct (*sync.Pool).Get call.
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				found := false
				ast.Inspect(res, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok && isDirectPoolCall(pkg, c, "Get") {
						found = true
					}
					return !found
				})
				if found {
					pf.getWrappers[fn.Obj] = true
				}
			}
			return true
		})
		// Put wrapper: a direct (*sync.Pool).Put call whose argument's
		// core identifier is one of the function's parameters.
		params := paramObjs(pkg, fn.Decl)
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			c, ok := n.(*ast.CallExpr)
			if !ok || !isDirectPoolCall(pkg, c, "Put") || len(c.Args) != 1 {
				return true
			}
			if id := coreIdent(c.Args[0]); id != nil {
				if obj, ok := pkg.Info.Uses[id].(*types.Var); ok {
					for i, p := range params {
						if p == obj {
							pf.putWrappers[fn.Obj] = i
						}
					}
				}
			}
			return true
		})
	}
	return pf
}

// paramObjs returns the parameter objects of a declaration in order.
func paramObjs(pkg *Package, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// coreIdent unwraps parens, slices, and type assertions down to a
// plain identifier ("b" in b[:0]), or nil.
func coreIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isGetCall reports whether call yields a pooled value.
func (pf *poolFns) isGetCall(pkg *Package, call *ast.CallExpr) bool {
	if isDirectPoolCall(pkg, call, "Get") {
		return true
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return pf.getWrappers[f]
		}
	case *ast.SelectorExpr:
		var obj types.Object
		if s, ok := pkg.Info.Selections[fun]; ok {
			obj = s.Obj()
		} else {
			obj = pkg.Info.Uses[fun.Sel]
		}
		if f, ok := obj.(*types.Func); ok {
			return pf.getWrappers[f]
		}
	}
	return false
}

// isPutCallOf reports whether call releases obj back to a pool.
func (pf *poolFns) isPutCallOf(pkg *Package, call *ast.CallExpr, obj *types.Var) bool {
	argIdx := -1
	if isDirectPoolCall(pkg, call, "Put") {
		argIdx = 0
	} else {
		var fobj types.Object
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			fobj = pkg.Info.Uses[fun]
		case *ast.SelectorExpr:
			if s, ok := pkg.Info.Selections[fun]; ok {
				fobj = s.Obj()
			} else {
				fobj = pkg.Info.Uses[fun.Sel]
			}
		}
		if f, ok := fobj.(*types.Func); ok {
			if i, ok := pf.putWrappers[f]; ok {
				argIdx = i
			}
		}
	}
	if argIdx < 0 || argIdx >= len(call.Args) {
		return false
	}
	id := coreIdent(call.Args[argIdx])
	if id == nil {
		return false
	}
	used, _ := pkg.Info.Uses[id].(*types.Var)
	return used == obj
}

// trackEvent classifies one CFG node's effect on a tracked value.
type trackEvent int

const (
	evNone    trackEvent = iota
	evRelease            // Put (direct, wrapper, or deferred)
	evEscape             // ownership leaves the function
	evDead               // variable rebound to an unrelated value
)

// checkPoolBody reports leaks for every tracked Get binding in body.
func checkPoolBody(prog *Program, pkg *Package, pf *poolFns, body *ast.BlockStmt) []Finding {
	cfg := BuildCFG(body)

	type binding struct {
		obj   *types.Var
		get   *ast.CallExpr
		block *Block
		node  int // index in block.Nodes of the binding statement
	}
	var bindings []binding
	for _, blk := range cfg.Blocks {
		for ni, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			var get *ast.CallExpr
			ast.Inspect(as.Rhs[0], func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if c, ok := m.(*ast.CallExpr); ok && get == nil && pf.isGetCall(pkg, c) {
					get = c
					return false
				}
				return true
			})
			if get == nil || len(as.Lhs) == 0 {
				continue
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var obj *types.Var
			if d, ok := pkg.Info.Defs[id].(*types.Var); ok {
				obj = d
			} else if u, ok := pkg.Info.Uses[id].(*types.Var); ok {
				obj = u
			}
			if obj != nil {
				bindings = append(bindings, binding{obj: obj, get: get, block: blk, node: ni})
			}
		}
	}

	var out []Finding
	for _, b := range bindings {
		if leaks(pkg, pf, cfg, b.obj, b.block, b.node) {
			out = append(out, Finding{
				Pos:      prog.Fset.Position(b.get.Pos()),
				Analyzer: "poolreturn",
				Msg: fmt.Sprintf("pooled value %q obtained here can reach a return without Put or escape — the buffer silently leaves the pool on that path",
					b.obj.Name()),
			})
		}
	}
	return out
}

// leaks walks the CFG from the binding point and reports whether any
// normal-return path keeps holding the value. The walk is a DFS over
// blocks with a single Held state: the first release/escape/rebind on
// a path ends that path, so a block never needs revisiting.
func leaks(pkg *Package, pf *poolFns, cfg *CFG, obj *types.Var, start *Block, startNode int) bool {
	visited := map[*Block]bool{}
	var walk func(blk *Block, from int) bool
	walk = func(blk *Block, from int) bool {
		if from == 0 {
			if visited[blk] {
				return false
			}
			visited[blk] = true
		}
		for i := from; i < len(blk.Nodes); i++ {
			switch classifyNode(pkg, pf, blk.Nodes[i], obj) {
			case evRelease, evEscape, evDead:
				return false
			}
		}
		if blk.Exit {
			return blk.ExitTo == ReturnExit
		}
		for _, s := range blk.Succs {
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	return walk(start, startNode+1)
}

// classifyNode determines one statement's (or header expression's)
// effect on the tracked value.
func classifyNode(pkg *Package, pf *poolFns, n ast.Node, obj *types.Var) trackEvent {
	switch s := n.(type) {
	case *ast.DeferStmt:
		if pf.isPutCallOf(pkg, s.Call, obj) {
			return evRelease
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			released := false
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && pf.isPutCallOf(pkg, c, obj) {
					released = true
				}
				return !released
			})
			if released {
				return evRelease
			}
		}
		if mentions(pkg, s, obj) {
			return evEscape
		}
		return evNone

	case *ast.AssignStmt:
		// Rebinding: LHS is exactly the tracked identifier.
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			var lobj *types.Var
			if d, ok := pkg.Info.Defs[id].(*types.Var); ok {
				lobj = d
			} else if u, ok := pkg.Info.Uses[id].(*types.Var); ok {
				lobj = u
			}
			if lobj != obj {
				continue
			}
			// x = append(x, ...), x = x[:n], x = x: still the same
			// pooled backing story — keep tracking. Anything else
			// rebinds x away from the pooled value.
			if i < len(s.Rhs) && derivedFrom(pkg, s.Rhs[i], obj) {
				// The RHS consumes the old value; no escape.
				return evNone
			}
			if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
				return evDead // multi-value rebind
			}
			return evDead
		}
		// Element/field writes into the buffer (x[i] = v, x.f = v) and
		// method calls on it (_, err := x.Write(p)) keep it held; the
		// buffer aliased to another name, passed as an argument, or
		// placed inside a structure hands a reference out.
		for _, rhs := range s.Rhs {
			if exprEscapes(pkg, rhs, obj) {
				return evEscape
			}
		}
		if lhsSubMentions(pkg, s.Lhs, obj) {
			return evEscape
		}
		return evNone

	case *ast.ReturnStmt:
		if mentions(pkg, s, obj) {
			return evEscape
		}
		return evNone

	case *ast.SendStmt:
		if mentions(pkg, s, obj) {
			return evEscape
		}
		return evNone

	default:
		// Statements and header expressions: a Put call releases;
		// the value escaping into a call argument, composite literal,
		// address-of, or closure capture escapes; receiver use,
		// indexing, len/cap, comparisons keep it held.
		event := evNone
		ast.Inspect(n, func(m ast.Node) bool {
			if event != evNone {
				return false
			}
			switch x := m.(type) {
			case *ast.CallExpr:
				if pf.isPutCallOf(pkg, x, obj) {
					event = evRelease
					return false
				}
				if argMentions(pkg, x, obj) {
					event = evEscape
					return false
				}
			case *ast.FuncLit:
				if mentions(pkg, x, obj) {
					event = evEscape
				}
				return false
			case *ast.CompositeLit:
				if mentions(pkg, x, obj) {
					event = evEscape
					return false
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND && mentions(pkg, x.X, obj) {
					event = evEscape
					return false
				}
			}
			return true
		})
		return event
	}
}

// derivedFrom reports whether e is a value derived from obj that keeps
// representing the same pooled buffer: obj itself, obj[...:...],
// append(obj, ...), or parens thereof.
func derivedFrom(pkg *Package, e ast.Expr, obj *types.Var) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		u, _ := pkg.Info.Uses[x].(*types.Var)
		return u == obj
	case *ast.SliceExpr:
		return derivedFrom(pkg, x.X, obj)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			return derivedFrom(pkg, x.Args[0], obj)
		}
	}
	return false
}

// argMentions reports whether obj is passed as an argument to a call
// that may retain it. Builtins that only inspect or copy out of the
// value (len, cap, copy, append, delete, clear, print, println) do not
// retain their operand.
func argMentions(pkg *Package, call *ast.CallExpr, obj *types.Var) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "copy", "append", "delete", "clear", "print", "println":
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return false
			}
		}
	}
	for _, a := range call.Args {
		if mentions(pkg, a, obj) {
			return true
		}
	}
	return false
}

// mentions reports whether obj is referenced anywhere under n.
func mentions(pkg *Package, n ast.Node, obj *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if u, _ := pkg.Info.Uses[id].(*types.Var); u == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// exprEscapes reports whether evaluating e can hand a reference to obj
// out of the tracker's sight: aliasing it to another name (y := x,
// y := x[:n]), passing it to a retaining call, placing it in a
// composite literal, taking its address, or capturing it in a closure.
// Method-receiver use (x.Write(p)), indexing, field reads, len/cap, and
// comparisons are harmless and keep the value tracked.
func exprEscapes(pkg *Package, e ast.Expr, obj *types.Var) bool {
	if derivedFrom(pkg, e, obj) {
		return true // alias under a new name
	}
	esc := false
	ast.Inspect(e, func(m ast.Node) bool {
		if esc {
			return false
		}
		switch x := m.(type) {
		case *ast.CallExpr:
			// Receiver use is harmless; arguments are the escape hatch
			// (argMentions covers anything nested inside them).
			if argMentions(pkg, x, obj) {
				esc = true
			}
			return false
		case *ast.FuncLit:
			if mentions(pkg, x, obj) {
				esc = true
			}
			return false
		case *ast.CompositeLit:
			if mentions(pkg, x, obj) {
				esc = true
			}
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND && mentions(pkg, x.X, obj) {
				esc = true
				return false
			}
		}
		return true
	})
	return esc
}

// lhsSubMentions reports whether obj appears in a non-root position of
// an assignment target (somemap[obj] = v hands the value out as a key;
// x[i] = v with obj as the root x stays held).
func lhsSubMentions(pkg *Package, lhss []ast.Expr, obj *types.Var) bool {
	for _, lhs := range lhss {
		// x[i] = v and x.f = v keep the buffer held: obj may appear
		// only as the root of the target chain. Anywhere else in the
		// target (an index value, a map key) hands it out.
		root := lhs
		for {
			switch t := root.(type) {
			case *ast.IndexExpr:
				if mentions(pkg, t.Index, obj) {
					return true
				}
				root = t.X
				continue
			case *ast.SelectorExpr:
				root = t.X
				continue
			case *ast.StarExpr:
				root = t.X
				continue
			case *ast.ParenExpr:
				root = t.X
				continue
			}
			break
		}
	}
	return false
}
