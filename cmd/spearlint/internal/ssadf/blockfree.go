package ssadf

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerBlockfree verifies the observability plane's latency
// contract: code documented lock-free must not reach a blocking
// operation on the caller's goroutine. The instruments sit on the
// per-tuple hot path (obs.Worker counters, BatchOccupancy folds,
// Gauge stores) and the paper's overhead argument (§6) only
// holds while a probe is a handful of atomic instructions — one mutex
// or channel op inherited through three layers of helpers turns the
// measurement into the bottleneck.
//
// Entry points are declared, not guessed: any function or method whose
// doc comment contains "lock-free", every method of a type whose doc
// comment contains "lock-free", and every function literal passed as a
// probe to Instruments.RegisterEdge/RegisterSink. From each entry the
// call graph is walked synchronously (`go` edges excluded — work
// shipped to another goroutine does not block the caller) and every
// blocking operation is reported with the chain that reaches it.
//
// Blocking operations: mutex/RWMutex Lock and RLock, WaitGroup.Wait,
// Cond.Wait, Once.Do, channel send/receive/range, select without
// default, time.Sleep, os file I/O, network dials (net.Dial* and
// (*net.Dialer) methods — a connect blocks for a round-trip or a
// timeout), and calls through the storage.SpillStore interface.
var AnalyzerBlockfree = &Analyzer{
	Name: "blockfree",
	Doc:  "blocking operation reachable from code documented lock-free",
	Run:  runBlockfree,
}

// blockEntry is one verification root: a named region of code that the
// contract says must stay non-blocking.
type blockEntry struct {
	name string
	pkg  *Package
	body ast.Node
}

func runBlockfree(prog *Program) []Finding {
	idx := prog.Funcs()
	spillIface := prog.lookupInterface("internal/storage", "SpillStore")

	entries := collectBlockfreeEntries(prog, idx)
	if len(entries) == 0 {
		return nil
	}

	// BFS with provenance: root names the entry, prev reconstructs the
	// call chain for messages.
	root := map[*Fn]string{}
	prev := map[*Fn]*Fn{}
	var queue []*Fn

	type siteKey struct {
		pos  token.Pos
		what string
	}
	reported := map[siteKey]bool{}
	var out []Finding

	report := func(pos token.Pos, what, entryName string, via *Fn) {
		k := siteKey{pos, what}
		if reported[k] {
			return
		}
		reported[k] = true
		msg := fmt.Sprintf("%s inside lock-free entry %s", what, entryName)
		if via != nil {
			var chain []string
			for fn := via; fn != nil; fn = prev[fn] {
				chain = append([]string{fn.Name()}, chain...)
			}
			msg = fmt.Sprintf("%s reachable from lock-free entry %s via %s",
				what, entryName, strings.Join(chain, " → "))
		}
		out = append(out, Finding{
			Pos:      prog.Fset.Position(pos),
			Analyzer: "blockfree",
			Msg:      msg + " — the probe contract allows atomics only",
		})
	}

	for _, e := range entries {
		for _, op := range blockingOps(prog, e.pkg, e.body, spillIface) {
			report(op.pos, op.what, e.name, nil)
		}
		for _, callee := range regionCallees(idx, e.pkg, e.body) {
			if _, seen := root[callee]; !seen {
				root[callee] = e.name
				queue = append(queue, callee)
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, op := range blockingOps(prog, fn.Pkg, fn.Decl.Body, spillIface) {
			report(op.pos, op.what, root[fn], fn)
		}
		for _, edge := range idx.Edges(fn) {
			if edge.Kind == GoEdge {
				continue
			}
			if _, seen := root[edge.Callee]; !seen {
				root[edge.Callee] = root[fn]
				prev[edge.Callee] = fn
				queue = append(queue, edge.Callee)
			}
		}
	}
	return out
}

// collectBlockfreeEntries gathers the contract roots in deterministic
// order.
func collectBlockfreeEntries(prog *Program, idx *funcIndex) []*blockEntry {
	var entries []*blockEntry

	// Named types documented lock-free: every method is an entry.
	lockFreeTypes := map[*types.TypeName]bool{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if docSaysLockFree(gd.Doc) || docSaysLockFree(ts.Doc) {
						if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
							lockFreeTypes[tn] = true
						}
					}
				}
			}
		}
	}

	for _, fn := range idx.All() {
		marked := docSaysLockFree(fn.Decl.Doc)
		if !marked && fn.Decl.Recv != nil {
			if rt := recvType(fn.Obj); rt != nil {
				t := rt
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if n, ok := t.(*types.Named); ok && lockFreeTypes[n.Obj()] {
					marked = true
				}
			}
		}
		if marked {
			entries = append(entries, &blockEntry{name: fn.Name(), pkg: fn.Pkg, body: fn.Decl.Body})
		}
	}

	// Probe closures handed to the instrument registry: RegisterEdge's
	// and RegisterSink's func-literal arguments run on the scrape path,
	// which polls every edge under one collection pass.
	for _, fn := range idx.All() {
		pkg := fn.Pkg
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "RegisterEdge" && sel.Sel.Name != "RegisterSink") {
				return true
			}
			for _, arg := range call.Args {
				if fl, ok := arg.(*ast.FuncLit); ok {
					pos := prog.Fset.Position(fl.Pos())
					name := fmt.Sprintf("probe %s (%s:%d)", sel.Sel.Name, shortFile(pos.Filename), pos.Line)
					entries = append(entries, &blockEntry{name: name, pkg: pkg, body: fl.Body})
				}
			}
			return true
		})
	}

	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}

func docSaysLockFree(doc *ast.CommentGroup) bool {
	return doc != nil && strings.Contains(strings.ToLower(doc.Text()), "lock-free")
}

func shortFile(name string) string {
	if i := strings.LastIndex(name, "/"); i >= 0 {
		return name[i+1:]
	}
	return name
}

// blockOp is one blocking operation found in a region.
type blockOp struct {
	pos  token.Pos
	what string
}

// blockingOps scans a region for blocking operations, skipping `go`
// statement subtrees (a spawned goroutine blocks only itself).
func blockingOps(prog *Program, pkg *Package, region ast.Node, spillIface *types.Interface) []blockOp {
	info := pkg.Info
	var out []blockOp
	add := func(pos token.Pos, what string) { out = append(out, blockOp{pos, what}) }

	// Communication statements of select clauses are governed by the
	// select itself (one finding, and only when no default exists) —
	// exempt them from the bare send/receive checks.
	selectComms := map[ast.Stmt]bool{}
	ast.Inspect(region, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					selectComms[cc.Comm] = true
				}
			}
		}
		return true
	})

	ast.Inspect(region, func(n ast.Node) bool {
		if stmt, ok := n.(ast.Stmt); ok && selectComms[stmt] {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			add(n.Arrow, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n.OpPos, "channel receive")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add(n.For, "range over channel")
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				add(n.Select, "select without default")
			}
		case *ast.CallExpr:
			if what := blockingCall(info, n, spillIface); what != "" {
				add(n.Pos(), what)
			}
		}
		return true
	})
	return out
}

// blockingCall classifies one call expression; "" means non-blocking
// (or unknown, which the analyzer treats as non-blocking — unresolved
// calls are a documented soundness limit, kept rare by the engine's
// interface-first style).
func blockingCall(info *types.Info, call *ast.CallExpr, spillIface *types.Interface) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}

	// Interface calls through storage.SpillStore: disk by contract.
	if spillIface != nil {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			rt := s.Recv()
			if types.IsInterface(rt) && (types.Identical(rt.Underlying(), spillIface) ||
				types.Implements(rt, spillIface)) {
				return fmt.Sprintf("SpillStore.%s call (disk I/O)", sel.Sel.Name)
			}
		}
	}

	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "sync":
		full := obj.FullName()
		switch full {
		case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock",
			"(*sync.WaitGroup).Wait", "(*sync.Cond).Wait", "(*sync.Once).Do":
			return full + " (may block)"
		}
	case "time":
		if obj.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "net":
		// Dial, DialTimeout, DialTCP, ... and (*net.Dialer).Dial*: a
		// connect blocks the caller for a network round-trip (or its
		// timeout) — the transport confines dials to redial goroutines.
		if strings.HasPrefix(obj.Name(), "Dial") {
			return obj.FullName() + " (blocking connect)"
		}
	case "os":
		full := obj.FullName()
		if strings.HasPrefix(full, "(*os.File).") {
			return full + " (file I/O)"
		}
		switch obj.Name() {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "ReadDir",
			"Remove", "RemoveAll", "Mkdir", "MkdirAll", "Rename", "Stat":
			return full + " (file I/O)"
		}
	}
	return ""
}

// regionCallees resolves every call in a region to module functions,
// skipping `go` subtrees.
func regionCallees(idx *funcIndex, pkg *Package, region ast.Node) []*Fn {
	var out []*Fn
	seen := map[*Fn]bool{}
	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			for _, fn := range idx.resolveCall(pkg, n) {
				if !seen[fn] {
					seen[fn] = true
					out = append(out, fn)
				}
			}
		}
		return true
	})
	return out
}
