package main

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// Analyzer is one project-specific check.
type Analyzer struct {
	// Name is the check identifier used in reports and in
	// //lint:ignore directives.
	Name string
	// Doc is the one-line catalogue entry.
	Doc string
	// Run reports findings for one package. Suppression is applied by
	// the driver, not by analyzers.
	Run func(p *Pkg) []Finding
}

// analyzers is the catalogue, in report order.
var analyzers = []*Analyzer{
	analyzerGlobalRand,
	analyzerGoroutine,
	analyzerEventTime,
	analyzerFloatCmp,
	analyzerErrcheckLite,
}

// buildSuppressions scans comments for //lint:ignore directives. The
// syntax follows staticcheck:
//
//	//lint:ignore check1,check2 reason
//
// The directive silences the named checks on its own line and on the
// line immediately following (so it can ride inline or stand above the
// offending statement). A missing reason disables the directive — every
// suppression must say why.
func (p *Pkg) buildSuppressions() {
	p.suppress = make(map[string]map[int]map[string]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore ") {
					continue
				}
				rest := strings.TrimPrefix(text, "lint:ignore ")
				parts := strings.SplitN(rest, " ", 2)
				if len(parts) < 2 || strings.TrimSpace(parts[1]) == "" {
					continue // no reason given: directive ignored
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.suppress[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					p.suppress[pos.Filename] = byLine
				}
				for _, name := range strings.Split(parts[0], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if byLine[line] == nil {
							byLine[line] = make(map[string]bool)
						}
						byLine[line][name] = true
					}
				}
			}
		}
	}
}

// suppressed reports whether a finding of check at pos is silenced.
func (p *Pkg) suppressed(check string, pos token.Position) bool {
	byLine := p.suppress[pos.Filename]
	if byLine == nil {
		return false
	}
	marks := byLine[pos.Line]
	return marks[check] || marks["all"]
}

// runAnalyzers applies every analyzer to every package, filters
// suppressed findings, and returns the rest sorted by position.
func runAnalyzers(pkgs []*Pkg, as []*Analyzer) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, a := range as {
			for _, f := range a.Run(p) {
				if !p.suppressed(f.Check, f.Pos) {
					out = append(out, f)
				}
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
		return out[i].Check < out[j].Check
	})
	return out
}

// inScope reports whether p.Rel equals or sits under any of dirs.
func inScope(p *Pkg, dirs ...string) bool {
	for _, d := range dirs {
		if p.Rel == d || strings.HasPrefix(p.Rel, d+"/") {
			return true
		}
	}
	return false
}
