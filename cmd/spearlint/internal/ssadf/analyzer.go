package ssadf

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one v2 analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Msg)
}

// Analyzer is one whole-program check.
type Analyzer struct {
	// Name identifies the check in reports and in //lint:ignore
	// directives.
	Name string
	// Doc is the one-line catalogue entry.
	Doc string
	// Run reports findings for the whole program. Suppression is
	// applied by the driver, not by analyzers.
	Run func(prog *Program) []Finding
}

// Analyzers is the v2 catalogue, in report order.
var Analyzers = []*Analyzer{
	AnalyzerPoolreturn,
	AnalyzerBlockfree,
}

// RunAll applies every analyzer, filters findings silenced by
// //lint:ignore directives, and returns the rest sorted by position.
func RunAll(prog *Program, as []*Analyzer) []Finding {
	var out []Finding
	for _, a := range as {
		for _, f := range a.Run(prog) {
			if !prog.Suppressed(f.Analyzer, f.Pos) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
