package main

import (
	"fmt"
	"go/ast"
)

// analyzerErrcheckLite flags dropped error returns from the two APIs
// whose failures corrupt data silently if ignored: the binary codecs
// (tuple.Decode/DecodeBatch/DecodeColumns and spill.DecodeChunk — a
// swallowed ErrCorrupt turns a damaged spill segment into a wrong
// window result) and SpillStore operations (Store/Get/Delete — a
// swallowed store error loses archived tuples the exact fallback
// depends on).
//
// Flagged shapes:
//
//   - the call as a bare statement (error never bound),
//   - `go`/`defer` of such a call,
//   - an assignment that binds the call's error position to `_`.
//
// Scope: files importing spear/internal/storage or a codec package
// (spear/internal/tuple, spear/internal/spill), and those packages
// themselves. Method-name matching (.Store/.Get/
// .Delete) is deliberately heuristic — spearlint runs without compiled
// export data, so cross-package receiver types are unknown; suppress
// with //lint:ignore errcheck-lite on a genuine false positive.
var analyzerErrcheckLite = &Analyzer{
	Name: "errcheck-lite",
	Doc:  "dropped error from tuple codec or storage spill calls",
	Run:  runErrcheckLite,
}

var spillMethods = map[string]bool{"Store": true, "Get": true, "Delete": true}

// codecFuncs lists, by module-relative package, the decoders whose error
// is the only sign that the bytes were damaged.
var codecFuncs = map[string]map[string]bool{
	"internal/tuple": {"Decode": true, "DecodeBatch": true, "DecodeColumns": true},
	"internal/spill": {"DecodeChunk": true},
}

func runErrcheckLite(p *Pkg) []Finding {
	var out []Finding
	for _, f := range p.Files {
		storageInScope := imports(f, "spear/internal/storage") || inScope(p, "internal/storage")
		// codecs maps the name a codec package goes by in this file ("" for
		// the package's own files) to its decoders.
		codecs := make(map[string]map[string]bool)
		for rel, funcs := range codecFuncs {
			if alias := importAlias(f, "spear/"+rel); alias != "" {
				codecs[alias] = funcs
			}
			if inScope(p, rel) {
				codecs[""] = funcs
			}
		}
		if !storageInScope && len(codecs) == 0 {
			continue
		}
		// target classifies a call; desc=="" means not a target.
		target := func(call *ast.CallExpr) string {
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok && codecs[id.Name][fun.Sel.Name] {
					return id.Name + "." + fun.Sel.Name
				}
				if storageInScope && spillMethods[fun.Sel.Name] {
					return "." + fun.Sel.Name
				}
			case *ast.Ident:
				if codecs[""][fun.Name] {
					return fun.Name
				}
			}
			return ""
		}
		flag := func(pos ast.Node, desc string) {
			out = append(out, Finding{
				Pos:   p.Fset.Position(pos.Pos()),
				Check: "errcheck-lite",
				Msg:   fmt.Sprintf("error returned by %s is dropped; spill/codec failures must be handled or propagated", desc),
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if d := target(call); d != "" {
						flag(n, d)
					}
				}
			case *ast.GoStmt:
				if d := target(n.Call); d != "" {
					flag(n, d)
				}
			case *ast.DeferStmt:
				if d := target(n.Call); d != "" {
					flag(n, d)
				}
			case *ast.AssignStmt:
				// Single call on the RHS with the last (error) position
				// assigned to the blank identifier.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok || len(n.Lhs) == 0 {
					return true
				}
				last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident)
				if !ok || last.Name != "_" {
					return true
				}
				if d := target(call); d != "" {
					flag(n, d)
				}
			}
			return true
		})
	}
	return out
}
