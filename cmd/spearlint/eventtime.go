package main

import (
	"go/ast"
)

// eventTimeScope lists the packages whose logic is defined over event
// time. Reading the wall clock there silently turns event-time
// semantics into processing-time semantics — results stop being
// reproducible from a recorded stream, and watermark reasoning breaks.
var eventTimeScope = []string{
	"internal/window",
	"internal/watermark",
	"internal/core",
	"internal/spe",
}

// analyzerEventTime flags every mention of time.Now — calls and bare
// references alike — inside the event-time packages. Telemetry that
// genuinely needs a wall clock must take an injected clock function
// (core.Config.Clock); the single sanctioned default carries a
// //lint:ignore directive explaining itself.
var analyzerEventTime = &Analyzer{
	Name: "eventtime",
	Doc:  "wall-clock (time.Now) use inside event-time packages; inject a clock",
	Run:  runEventTime,
}

func runEventTime(p *Pkg) []Finding {
	if !inScope(p, eventTimeScope...) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		alias := importAlias(f, "time")
		if alias == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != alias || sel.Sel.Name != "Now" {
				return true
			}
			out = append(out, Finding{
				Pos:   p.Fset.Position(sel.Pos()),
				Check: "eventtime",
				Msg:   "time.Now in an event-time package; event-time logic must never read the wall clock — inject a clock (core.Config.Clock) instead",
			})
			return true
		})
	}
	return out
}
