package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotLoopScope limits the check to the engine package: its worker
// goroutines execute once per tuple at full stream rate, so a stray
// wall-clock read or map allocation there is a per-tuple cost that
// micro-batching cannot amortize away.
var hotLoopScope = []string{
	"internal/spe",
}

// hotTupleScope limits the ingest-kernel check to the window managers:
// the loops of their ingestRun kernels execute once per tuple (or once
// per run and open window) at full stream rate.
var hotTupleScope = []string{
	"internal/core",
}

// spillSeamScope limits the direct-spill check to the packages that own
// spill seams on the data path: the SPEAr managers (archive, fire
// paths) and the window buffer managers. Code there must talk to
// secondary storage through the async spill plane (spill.Plane), never
// through a raw storage.SpillStore — a direct call is a synchronous
// round-trip to S charged to the hot path.
var spillSeamScope = []string{
	"internal/core",
	"internal/window",
}

// transportSendScope limits the frame-path check to the network
// shuffle: pump drains a worker outbox at full stream rate, sendSeq
// queues one frame per call and readLoop dispatches one per iteration,
// so everything they reach synchronously — the encode closures, the
// frame Append helpers behind them, the frame decoder — is charged per
// frame. Reconnection lives on the redial goroutine by design, so `go`
// statement subtrees are exempt.
var transportSendScope = []string{
	"internal/transport",
}

// analyzerHotLoop flags per-tuple costs inside the engine's hot paths:
//
//   - In internal/spe worker loops (functions reached from a `go func`
//     literal launched by Topology.Run): any mention of time.Now, any
//     map allocation (make(map...) or a map composite literal), any
//     explicit mutex acquisition (.Lock/.RLock), and any mutex-guarded
//     metric observation (.Observe/.ObserveDuration through a selector
//     chain passing a Metrics field — obs.Histogram takes a lock
//     per observation).
//   - In internal/core ingest kernels — every method named ingestRun,
//     the one kernel a manager's OnTuple, OnTupleBatch and OnColumnBatch
//     all feed (DESIGN.md §19); the entry points themselves are
//     loop-free adapters and finding loops in them by name finds none.
//     Loops are collected anywhere in the body, including inside
//     function literals, because the window-run visit closure handed to
//     Spec.EachRun runs synchronously. Inside them: the same mutex
//     rules; fmt.Sprintf/Sprint/Sprintln calls (per-tuple formatting
//     reflects and allocates); string concatenation via + or += (each
//     one copies both halves into a fresh allocation — a
//     strings.Builder or reused byte slice amortizes); append to a
//     slice the kernel declared without capacity (`var x []T`,
//     `x := []T{}`, `x := make([]T, 0)` — slices of unknown provenance,
//     fields, parameters, aliases, stay quiet: a tripwire for the local
//     regression, not an escape analysis); and the row-format
//     regressions a kernel over columns exists to eliminate —
//     tuple.Value boxing (tuple.Float/Int/String_/Bool/New constructor
//     calls), per-row Value accessor calls (.AsFloat/.AsInt/.AsString/
//     .AsBool), per-row interface conversions (type assertions), and
//     indexing back into a tuple's Vals row storage. No call expansion,
//     so per-batch and per-run work outside the loops, and the
//     per-window fire paths — which legitimately observe ProcTime once
//     per window through helpers — stay exempt.
//   - In internal/transport, on the shuffle's frame path (pump, sendSeq,
//     readLoop, and every package-local function they reach
//     synchronously): the worker-loop rules above over each reachable
//     loop, plus any net.Dial* call anywhere on the path — a blocking
//     connect stalls every frame behind the write lock, so dials belong
//     to the redial goroutine (`go` statement subtrees are exempt from
//     both the reachability walk and the dial scan) — plus per-frame
//     buffer churn: a slice make, or an append-shaped call handed nil to
//     grow from (enc(nil, seq), AppendX(nil, ...), append([]T(nil),
//     ...)), inside a reachable loop or anywhere in sendSeq's own body,
//     which runs once per frame. Frame buffers are recycled; a helper
//     that allocates when its free list is empty sits outside any loop
//     and stays quiet.
//
// spe reachability is intraprocedural with one hop of package-local
// call resolution: the seed set is every goroutine literal in
// Topology.Run (nested closures included), expanded through calls to
// same-package functions and methods resolved via the type info. Code
// called through interfaces or from other packages is out of reach by
// design — the analyzer is a tripwire for the obvious regression, not
// an escape analysis. Loop setup (before the loop) is deliberately not
// flagged: per-worker initialization may build maps, read clocks, and
// take locks freely.
var analyzerHotLoop = &Analyzer{
	Name: "hotloop",
	Doc:  "time.Now, map/string/slice allocation churn, or mutex-guarded metric call inside engine hot loops (per-tuple cost)",
	Run:  runHotLoop,
}

func runHotLoop(p *Pkg) []Finding {
	var out []Finding
	if inScope(p, hotLoopScope...) {
		out = append(out, runHotWorkers(p)...)
	}
	if inScope(p, hotTupleScope...) {
		out = append(out, runHotManagers(p)...)
		out = append(out, runControlCell(p)...)
	}
	if inScope(p, spillSeamScope...) {
		out = append(out, runDirectSpill(p)...)
	}
	if inScope(p, transportSendScope...) {
		out = append(out, runTransportSend(p)...)
	}
	return out
}

// runTransportSend is the internal/transport side: the shuffle's frame
// path. Roots are the outbox pump, the link's sendSeq and its readLoop;
// reachability expands through package-local calls — including calls
// inside the encode closures handed to sendSeq, which run synchronously
// on the send path — but never through a `go` statement (the redial
// plane is the sanctioned home for blocking work). Each reachable body
// gets the worker-loop scan, a whole-body net.Dial* scan, and the
// per-frame buffer-churn scan over its loops (over the whole body for
// sendSeq itself).
func runTransportSend(p *Pkg) []Finding {
	type fnDecl struct {
		decl *ast.FuncDecl
		file *ast.File
	}
	decls := map[types.Object]fnDecl{}
	var roots []fnDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if p.Info != nil {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fnDecl{fd, f}
				}
			}
			switch fd.Name.Name {
			case "pump", "sendSeq", "readLoop":
				roots = append(roots, fnDecl{fd, f})
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	type workItem struct {
		body *ast.BlockStmt
		file *ast.File
	}
	var work []workItem
	seen := map[*ast.BlockStmt]bool{}
	push := func(body *ast.BlockStmt, file *ast.File) {
		if body != nil && !seen[body] {
			seen[body] = true
			work = append(work, workItem{body, file})
		}
	}
	perFrame := map[*ast.BlockStmt]bool{} // bodies that run once per frame, loop or not
	for _, r := range roots {
		push(r.decl.Body, r.file)
		perFrame[r.decl.Body] = r.decl.Name.Name == "sendSeq"
	}
	var out []Finding
	for i := 0; i < len(work); i++ {
		item := work[i]
		if p.Info != nil {
			ast.Inspect(item.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					// Work shipped to another goroutine (the redial
					// plane) does not run on the send path.
					return false
				case *ast.CallExpr:
					var id *ast.Ident
					switch fun := n.Fun.(type) {
					case *ast.Ident:
						id = fun
					case *ast.SelectorExpr:
						id = fun.Sel
					default:
						return true
					}
					if obj := p.Info.Uses[id]; obj != nil {
						if d, ok := decls[obj]; ok {
							push(d.decl.Body, d.file)
						}
					}
				}
				return true
			})
		}
		out = append(out, scanHotBody(p, item.body, importAlias(item.file, "time"))...)
		out = append(out, scanNetDial(p, item.body, importAlias(item.file, "net"))...)
		out = append(out, scanFrameChurn(p, item.body, perFrame[item.body])...)
	}
	return out
}

// scanFrameChurn flags per-frame buffer churn in body: inside its loops,
// or anywhere in it when whole is set (the body itself runs once per
// frame). Two shapes: a slice make, and an append-shaped call — the
// append builtin, an Append*-named function, or a func-typed variable or
// parameter such as the encode callback — whose first argument is nil
// (or a nil conversion), i.e. a buffer grown from nothing every time.
// Function literals and `go` subtrees are skipped: an encode closure
// receives its buffer, and what it reaches is scanned as its own body.
func scanFrameChurn(p *Pkg, body *ast.BlockStmt, whole bool) []Finding {
	var out []Finding
	flag := func(region ast.Node) {
		ast.Inspect(region, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.ForStmt:
				if !whole && n.Body != region {
					return false // scanned as its own loop
				}
			case *ast.RangeStmt:
				if !whole && n.Body != region {
					return false
				}
			case *ast.CallExpr:
				if msg := frameChurnMsg(p, n); msg != "" {
					out = append(out, Finding{Pos: p.Fset.Position(n.Pos()), Check: "hotloop", Msg: msg})
				}
			}
			return true
		})
	}
	if whole {
		flag(body)
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			flag(n.Body)
		case *ast.RangeStmt:
			flag(n.Body)
		}
		return true
	})
	return out
}

// frameChurnMsg classifies one call as per-frame buffer churn, or
// returns "".
func frameChurnMsg(p *Pkg, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return ""
	}
	if name == "make" {
		if _, isSlice := call.Args[0].(*ast.ArrayType); isSlice {
			return "slice allocation (make) per frame on the transport frame path; recycle the buffer — the link keeps a free list of acknowledged frames, the shard a batch pool"
		}
		return ""
	}
	appendShaped := name == "append" || strings.HasPrefix(name, "Append") || strings.HasPrefix(name, "append")
	if !appendShaped && p.Info != nil {
		// A func-typed variable or parameter (the encode callback).
		if id, ok := call.Fun.(*ast.Ident); ok {
			if v, ok := p.Info.Uses[id].(*types.Var); ok {
				_, appendShaped = v.Type().Underlying().(*types.Signature)
			}
		}
	}
	if appendShaped && isNilBuffer(call.Args[0]) {
		return "buffer grown from nil per frame (" + name + "(nil, ...)) on the transport frame path; append into a recycled buffer instead"
	}
	return ""
}

// isNilBuffer reports whether e is nil or a conversion of nil
// ([]byte(nil)).
func isNilBuffer(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.ParenExpr:
		return isNilBuffer(x.X)
	case *ast.CallExpr:
		if _, conv := x.Fun.(*ast.ArrayType); conv && len(x.Args) == 1 {
			return isNilBuffer(x.Args[0])
		}
	}
	return false
}

// scanNetDial flags net.Dial, net.DialTimeout, net.DialTCP, ... calls
// anywhere in body (loop or not — one blocking connect on the send
// path stalls every frame queued behind the write lock), skipping `go`
// statement subtrees. Matching is syntactic against the file's net
// import alias, like the time.Now check: the stub importer leaves
// stdlib objects opaque.
func scanNetDial(p *Pkg, body *ast.BlockStmt, netAlias string) []Finding {
	if netAlias == "" {
		return nil
	}
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != netAlias || !strings.HasPrefix(sel.Sel.Name, "Dial") {
			return true
		}
		out = append(out, Finding{
			Pos:   p.Fset.Position(call.Pos()),
			Check: "hotloop",
			Msg:   "net." + sel.Sel.Name + " on the transport send path; a blocking connect stalls every frame queued behind the write lock — dials belong to the redial goroutine",
		})
		return true
	})
	return out
}

// runHotWorkers is the internal/spe side: goroutines of Topology.Run.
func runHotWorkers(p *Pkg) []Finding {

	// Index package-level function declarations by their object, and
	// remember which file holds each (the time import alias is
	// per-file). Also collect the Topology.Run roots.
	type fnDecl struct {
		decl *ast.FuncDecl
		file *ast.File
	}
	decls := map[types.Object]fnDecl{}
	var roots []fnDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if p.Info != nil {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fnDecl{fd, f}
				}
			}
			if fd.Name.Name == "Run" && recvTypeName(fd) == "Topology" {
				roots = append(roots, fnDecl{fd, f})
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Seed: every `go func(...)` literal inside Topology.Run. Nested
	// closures ride along because the violation scan walks whole
	// bodies.
	type workItem struct {
		body *ast.BlockStmt
		file *ast.File
	}
	var work []workItem
	seen := map[*ast.BlockStmt]bool{}
	push := func(body *ast.BlockStmt, file *ast.File) {
		if body != nil && !seen[body] {
			seen[body] = true
			work = append(work, workItem{body, file})
		}
	}
	for _, r := range roots {
		ast.Inspect(r.decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
					push(fl.Body, r.file)
				}
			}
			return true
		})
	}

	// Expand through package-local calls, then scan each reachable
	// body's loops.
	var out []Finding
	for i := 0; i < len(work); i++ {
		item := work[i]

		// One hop of call resolution per body: idents and selectors
		// that resolve to a package-level function pull its body in.
		if p.Info != nil {
			ast.Inspect(item.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				default:
					return true
				}
				if obj := p.Info.Uses[id]; obj != nil {
					if d, ok := decls[obj]; ok {
						push(d.decl.Body, d.file)
					}
				}
				return true
			})
		}

		out = append(out, scanHotBody(p, item.body, importAlias(item.file, "time"))...)
	}
	return out
}

// recvTypeName returns the receiver's base type name ("" for plain
// functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// scanHotBody reports violations inside every for/range loop of body
// (loops inside nested closures included — the closure bodies are part
// of the reachable code). Each loop scan stops at nested function
// literals (code in them does not run per iteration of this loop) and
// at nested loops (each loop gets its own scan, so a violation is
// reported exactly once, at its innermost loop).
func scanHotBody(p *Pkg, body *ast.BlockStmt, timeAlias string) []Finding {
	var out []Finding
	var loops []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		}
		return true
	})
	flagLoop := func(loop *ast.BlockStmt) {
		ast.Inspect(loop, func(n ast.Node) bool {
			if n == loop {
				return true
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				return false // scanned as its own loop
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && timeAlias != "" &&
					id.Name == timeAlias && n.Sel.Name == "Now" {
					out = append(out, Finding{
						Pos:   p.Fset.Position(n.Pos()),
						Check: "hotloop",
						Msg:   "time.Now inside a worker hot loop; a per-tuple wall-clock read costs a syscall-class stall per message — hoist it out of the loop or inject a clock",
					})
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if _, isMap := n.Args[0].(*ast.MapType); isMap {
						out = append(out, Finding{
							Pos:   p.Fset.Position(n.Pos()),
							Check: "hotloop",
							Msg:   "map allocation (make) inside a worker hot loop; allocate once per worker and reuse — a per-tuple map is per-tuple garbage",
						})
					}
				}
				if f := mutexMetricFinding(p, n, "a worker hot loop"); f != nil {
					out = append(out, *f)
				}
			case *ast.CompositeLit:
				if _, isMap := n.Type.(*ast.MapType); isMap {
					out = append(out, Finding{
						Pos:   p.Fset.Position(n.Pos()),
						Check: "hotloop",
						Msg:   "map literal inside a worker hot loop; allocate once per worker and reuse — a per-tuple map is per-tuple garbage",
					})
				}
			}
			return true
		})
	}
	for _, loop := range loops {
		flagLoop(loop)
	}
	return out
}

// mutexMetricFinding classifies one call as a per-tuple locking cost:
// an explicit mutex acquisition, or a metric observation that takes a
// mutex internally (obs.Histogram.Observe/ObserveDuration, reached
// through a Metrics field). Counters and obs.Gauge are atomic and exempt;
// non-metric Observe methods (e.g. the barrier aligner's, the watermark
// generator's) are exempt because their chains never pass a Metrics
// selector. Returns nil when the call is not a target.
func mutexMetricFinding(p *Pkg, call *ast.CallExpr, where string) *Finding {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if len(call.Args) == 0 {
			return &Finding{
				Pos:   p.Fset.Position(call.Pos()),
				Check: "hotloop",
				Msg:   "mutex acquired inside " + where + "; a per-tuple lock serializes the stage — use atomics or amortize per batch",
			}
		}
	case "Observe", "ObserveDuration":
		if chainContains(sel.X, "Metrics") {
			return &Finding{
				Pos:   p.Fset.Position(call.Pos()),
				Check: "hotloop",
				Msg:   "mutex-guarded metric call (Histogram." + sel.Sel.Name + ") inside " + where + "; the histogram locks per observation — use atomic Counter/Gauge on per-tuple paths or record once per batch/window",
			}
		}
	}
	return nil
}

// chainContains reports whether the selector chain of e (a.b.c...) or
// its call results pass through an identifier or field named name.
func chainContains(e ast.Expr, name string) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name == name
		case *ast.SelectorExpr:
			if x.Sel.Name == name {
				return true
			}
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// runHotManagers is the internal/core side, seeded at the kernel: every
// method named ingestRun. Its loops are collected from the whole body
// INCLUDING function literals — the kernels hand a per-run visit closure
// to window.Spec.EachRun and it runs synchronously on the ingest path —
// outermost loops only, each scan covering its nested loops. Every
// kernel loop gets the mutex/metric scan, the allocation-churn scan and
// the row-format scan (boxing, accessors, assertions, Vals indexing): a
// kernel that reaches back into row representation per element has
// silently lost the point of reading a batch once into columns. No call
// expansion — helpers like the per-window fire paths observe ProcTime
// once per window, legitimately — and per-batch or per-run work outside
// the loops may lock, format and allocate freely.
func runHotManagers(p *Pkg) []Finding {
	const where = "an ingest kernel loop"
	var out []Finding
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || fd.Name.Name != "ingestRun" {
				continue
			}
			growing := growingSlices(p, fd.Body)
			fmtAlias := importAlias(f, "fmt")
			tupleAlias := importAlias(f, "spear/internal/tuple")
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var loop *ast.BlockStmt
				switch n := n.(type) {
				case *ast.ForStmt:
					loop = n.Body
				case *ast.RangeStmt:
					loop = n.Body
				default:
					return true
				}
				out = append(out, scanMutexMetric(p, loop, where)...)
				out = append(out, scanBatchAllocs(p, loop, fmtAlias, growing, where)...)
				out = append(out, scanColumnKernel(p, loop, tupleAlias)...)
				return false
			})
		}
	}
	return out
}

// scanColumnKernel flags row-format regressions inside one ingest
// kernel loop: tuple.Value boxing via the tuple package's constructors,
// per-row Value accessor calls, per-row interface conversions (type
// assertions), and indexing into a tuple's Vals row storage. Nested
// function literals are skipped (closures do not run per iteration of
// this loop). Matching is syntactic — method names and the file's
// tuple import alias — like the time.Now check: the stub importer
// leaves cross-package types opaque, and a tripwire must never guess.
func scanColumnKernel(p *Pkg, loop *ast.BlockStmt, tupleAlias string) []Finding {
	const where = " inside an ingest kernel loop; the kernel contract is tight loops over the typed column slices — "
	var out []Finding
	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.TypeAssertExpr:
			out = append(out, Finding{
				Pos:   p.Fset.Position(n.Pos()),
				Check: "hotloop",
				Msg:   "per-row interface conversion (type assertion)" + where + "resolve the dynamic type once per batch, or fall back to the row path",
			})
		case *ast.IndexExpr:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Vals" {
				out = append(out, Finding{
					Pos:   p.Fset.Position(n.Pos()),
					Check: "hotloop",
					Msg:   "row-format field access (Vals indexing)" + where + "read the column slice the batch already materialized",
				})
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				switch fun.Sel.Name {
				case "AsFloat", "AsInt", "AsString", "AsBool":
					out = append(out, Finding{
						Pos:   p.Fset.Position(n.Pos()),
						Check: "hotloop",
						Msg:   "per-row Value accessor (." + fun.Sel.Name + ")" + where + "the typed slice already holds the unboxed values",
					})
				default:
					if id, ok := fun.X.(*ast.Ident); ok && tupleAlias != "" && id.Name == tupleAlias {
						switch fun.Sel.Name {
						case "Int", "Float", "String_", "Bool", "New":
							out = append(out, Finding{
								Pos:   p.Fset.Position(n.Pos()),
								Check: "hotloop",
								Msg:   "tuple.Value boxing (" + tupleAlias + "." + fun.Sel.Name + ")" + where + "emit into a column or a plain slice instead of boxing per row",
							})
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// growingSlices collects the objects of slice variables the function
// body declares without preallocated capacity: `var x []T`,
// `x := []T{}`, `x := make([]T, 0)`, and `x := T(nil)` forms. Appending
// to one of these inside the per-tuple loop reallocates as the batch
// grows. A three-argument make, a make with nonzero length, or a seeded
// literal counts as sized and stays quiet.
func growingSlices(p *Pkg, body *ast.BlockStmt) map[types.Object]bool {
	growing := map[types.Object]bool{}
	if p.Info == nil {
		return growing
	}
	mark := func(id *ast.Ident) {
		if obj := p.Info.Defs[id]; obj != nil {
			growing[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && growingInit(n.Rhs[i]) {
					mark(id)
				}
			}
		case *ast.GenDecl:
			if n.Tok != token.VAR {
				return true
			}
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				at, ok := vs.Type.(*ast.ArrayType)
				if !ok || at.Len != nil {
					continue
				}
				for _, id := range vs.Names {
					mark(id)
				}
			}
		}
		return true
	})
	return growing
}

// growingInit reports whether an initializer expression yields a slice
// with no preallocated capacity.
func growingInit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false
		}
		at, ok := e.Args[0].(*ast.ArrayType)
		if !ok || at.Len != nil {
			return false
		}
		lit, ok := e.Args[1].(*ast.BasicLit)
		return ok && lit.Value == "0"
	case *ast.CompositeLit:
		at, ok := e.Type.(*ast.ArrayType)
		return ok && at.Len == nil && len(e.Elts) == 0
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}

// scanBatchAllocs flags per-tuple allocation churn inside one ingest
// kernel loop (where names it): fmt formatting calls, string
// concatenation, and appends to slices declared without capacity.
// Nested function literals are skipped (closures do not run per
// iteration of this loop); a chain of string + operators is reported
// once, at its outermost node.
func scanBatchAllocs(p *Pkg, loop *ast.BlockStmt, fmtAlias string, growing map[types.Object]bool, where string) []Finding {
	var out []Finding
	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && fmtAlias != "" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == fmtAlias {
					switch sel.Sel.Name {
					case "Sprintf", "Sprint", "Sprintln":
						out = append(out, Finding{
							Pos:   p.Fset.Position(n.Pos()),
							Check: "hotloop",
							Msg:   "fmt." + sel.Sel.Name + " inside " + where + "; per-tuple formatting reflects over its arguments and allocates the result — format once per batch or append to a reused buffer",
						})
					}
				}
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 && p.Info != nil {
				if target, ok := n.Args[0].(*ast.Ident); ok {
					if obj := p.Info.Uses[target]; obj != nil && growing[obj] {
						out = append(out, Finding{
							Pos:   p.Fset.Position(n.Pos()),
							Check: "hotloop",
							Msg:   "append to " + target.Name + " inside " + where + " but " + target.Name + " is declared without capacity; preallocate with make(..., 0, len(batch)) so the whole batch appends without reallocating",
						})
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(p, n.Lhs[0]) {
				out = append(out, Finding{
					Pos:   p.Fset.Position(n.Pos()),
					Check: "hotloop",
					Msg:   "string concatenation (+=) inside " + where + "; each += copies the whole string into a fresh allocation — accumulate in a strings.Builder or a reused byte slice",
				})
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(p, n) {
				out = append(out, Finding{
					Pos:   p.Fset.Position(n.Pos()),
					Check: "hotloop",
					Msg:   "string concatenation (+) inside " + where + "; each + copies both halves into a fresh allocation — accumulate in a strings.Builder or a reused byte slice",
				})
				return false // one finding per outermost + chain
			}
		}
		return true
	})
	return out
}

// isStringExpr reports whether the (possibly partial) type info proves
// e is a string. Unknown types answer false: the stub importer leaves
// cross-package expressions untyped, and a tripwire must never guess.
func isStringExpr(p *Pkg, e ast.Expr) bool {
	if p.Info == nil {
		return false
	}
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// scanMutexMetric applies mutexMetricFinding to every call in body,
// stopping at nested function literals (deferred or stored closures do
// not run per tuple).
func scanMutexMetric(p *Pkg, body *ast.BlockStmt, where string) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if f := mutexMetricFinding(p, call, where); f != nil {
				out = append(out, *f)
			}
		}
		return true
	})
	return out
}

// controlCellReads is the whole hot-path surface of the controller
// cell: the two atomic loads. Everything else on the cell — Set above
// all — is a publish, and publishing from the data path inverts the
// control flow the cell exists to keep one-directional (controller and
// restore write; managers read at batch boundaries).
var controlCellReads = map[string]bool{
	"Budget":   true,
	"Shedding": true,
}

// runControlCell flags control.Cell method calls other than the atomic
// reads (Budget, Shedding) on any path reachable from the manager entry
// points OnTuple/OnTupleBatch/OnColumnBatch, package-local helpers
// (syncControl and friends) included. The loader's stub importer leaves
// cross-package types opaque, so classification is syntactic like the
// spill-seam check: a name is "a controller cell" iff it is declared —
// as a field, parameter, or receiver — with type Cell or control.Cell,
// and local `x := <cell expr>` aliases inside reachable bodies ride
// along. Reachability matches runDirectSpill: seed bodies plus
// package-local call expansion to a fixed point.
func runControlCell(p *Pkg) []Finding {
	if p.Info == nil {
		return nil
	}
	isCellType := func(e ast.Expr) bool {
		ts := strings.TrimPrefix(types.ExprString(e), "*")
		return ts == "Cell" || ts == "control.Cell"
	}
	cellObjs := map[types.Object]bool{}
	record := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if f.Type == nil || !isCellType(f.Type) {
				continue
			}
			for _, n := range f.Names {
				if obj := p.Info.Defs[n]; obj != nil {
					cellObjs[obj] = true
				}
			}
		}
	}
	decls := map[types.Object]*ast.FuncDecl{}
	var seeds []*ast.FuncDecl
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				record(n.Fields)
			case *ast.FuncDecl:
				record(n.Recv)
				record(n.Type.Params)
			}
			return true
		})
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
			if fd.Recv != nil && (fd.Name.Name == "OnTuple" || fd.Name.Name == "OnTupleBatch" || fd.Name.Name == "OnColumnBatch") {
				seeds = append(seeds, fd)
			}
		}
	}
	if len(seeds) == 0 || len(cellObjs) == 0 {
		return nil
	}

	// isCellExpr resolves an expression to a known cell object: a bare
	// ident, the trailing field of a selector chain (m.cfg.Cell), or a
	// parenthesization of either.
	var isCellExpr func(e ast.Expr) bool
	isCellExpr = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return cellObjs[p.Info.Uses[x]]
		case *ast.SelectorExpr:
			return cellObjs[p.Info.Uses[x.Sel]]
		case *ast.ParenExpr:
			return isCellExpr(x.X)
		}
		return false
	}

	var work []*ast.BlockStmt
	seen := map[*ast.BlockStmt]bool{}
	push := func(b *ast.BlockStmt) {
		if b != nil && !seen[b] {
			seen[b] = true
			work = append(work, b)
		}
	}
	for _, s := range seeds {
		push(s.Body)
	}
	var out []Finding
	for i := 0; i < len(work); i++ {
		// Local aliases first (`c := m.cfg.Cell`), so the flag pass below
		// sees through the one level of indirection syncControl uses.
		ast.Inspect(work[i], func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for j, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && isCellExpr(as.Rhs[j]) {
					if obj := p.Info.Defs[id]; obj != nil {
						cellObjs[obj] = true
					}
				}
			}
			return true
		})
		ast.Inspect(work[i], func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			if id != nil {
				if obj := p.Info.Uses[id]; obj != nil {
					if d, ok := decls[obj]; ok {
						push(d.Body)
					}
				}
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || controlCellReads[sel.Sel.Name] || !isCellExpr(sel.X) {
				return true
			}
			out = append(out, Finding{
				Pos:   p.Fset.Position(call.Pos()),
				Check: "hotloop",
				Msg: "control.Cell." + sel.Sel.Name + " call reachable from OnTuple/OnTupleBatch/OnColumnBatch; " +
					"the hot path may only read the cell (Budget/Shedding, single atomic loads) — " +
					"publishing belongs to the controller and the checkpoint-restore path",
			})
			return true
		})
	}
	return out
}

// runDirectSpill flags direct SpillStore.Store/Get calls reachable from
// the manager entry points OnTuple/OnTupleBatch/OnColumnBatch. The
// archive and window
// buffers route every spill operation through the async spill plane
// (spill.Plane, obtained via spill.AsPlane); a raw store call on the
// data path reintroduces the synchronous round-trip to S the plane
// exists to hide.
//
// The loader's stub importer leaves cross-package types opaque, so the
// check is syntactic: a receiver expression is "a spill store" iff its
// trailing name (field, parameter, or receiver) is declared somewhere
// in the package with a type mentioning SpillStore — and never with one
// mentioning Plane (the sanctioned seam). Names declared both ways are
// ambiguous and stay quiet; the check is a tripwire for the obvious
// regression, not an alias analysis. Reachability matches the spe
// worker scan: seed bodies plus package-local call expansion.
func runDirectSpill(p *Pkg) []Finding {
	// Declared-type index: every struct field, parameter, and receiver
	// name in the package, mapped to the set of its type strings.
	typesByName := map[string]map[string]bool{}
	record := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if f.Type == nil {
				continue
			}
			ts := types.ExprString(f.Type)
			for _, n := range f.Names {
				m := typesByName[n.Name]
				if m == nil {
					m = map[string]bool{}
					typesByName[n.Name] = m
				}
				m[ts] = true
			}
		}
	}
	decls := map[types.Object]*ast.FuncDecl{}
	var seeds []*ast.FuncDecl
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				record(n.Fields)
			case *ast.FuncDecl:
				record(n.Recv)
				record(n.Type.Params)
			}
			return true
		})
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if p.Info != nil {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
			if fd.Recv != nil && (fd.Name.Name == "OnTuple" || fd.Name.Name == "OnTupleBatch" || fd.Name.Name == "OnColumnBatch") {
				seeds = append(seeds, fd)
			}
		}
	}
	if len(seeds) == 0 {
		return nil
	}
	isSpillName := func(name string) bool {
		set := typesByName[name]
		if set == nil {
			return false
		}
		spill, plane := false, false
		for ts := range set {
			if strings.Contains(ts, "SpillStore") {
				spill = true
			}
			if strings.Contains(ts, "Plane") {
				plane = true
			}
		}
		return spill && !plane
	}

	// Reachable bodies: the entry points plus one hop of package-local
	// call resolution per body, iterated to a fixed point.
	var work []*ast.BlockStmt
	seen := map[*ast.BlockStmt]bool{}
	push := func(b *ast.BlockStmt) {
		if b != nil && !seen[b] {
			seen[b] = true
			work = append(work, b)
		}
	}
	for _, s := range seeds {
		push(s.Body)
	}
	var out []Finding
	for i := 0; i < len(work); i++ {
		ast.Inspect(work[i], func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if p.Info != nil {
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				}
				if id != nil {
					if obj := p.Info.Uses[id]; obj != nil {
						if d, ok := decls[obj]; ok {
							push(d.Body)
						}
					}
				}
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Store" && sel.Sel.Name != "Get") {
				return true
			}
			var base string
			switch x := sel.X.(type) {
			case *ast.Ident:
				base = x.Name
			case *ast.SelectorExpr:
				base = x.Sel.Name
			default:
				return true
			}
			if isSpillName(base) {
				out = append(out, Finding{
					Pos:   p.Fset.Position(call.Pos()),
					Check: "hotloop",
					Msg: "direct SpillStore." + sel.Sel.Name + " call reachable from OnTuple/OnTupleBatch; " +
						"route spill I/O through the async spill plane (spill.Plane via spill.AsPlane) so " +
						"writes queue behind the hot path and reads can hit the chunk cache",
				})
			}
			return true
		})
	}
	return out
}
