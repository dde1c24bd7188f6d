package ssadf

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// AnalyzerSnapshotcover proves the checkpoint coverage contract: for
// every type implementing checkpoint.Snapshotter, each struct field
// that the engine mutates on an OnTuple/OnTupleBatch-reachable path
// must be read by SnapshotState and written by RestoreState. A field
// that is written per tuple but missing from either codec is a silent
// checkpoint-corruption bug: the checkpoint commits, recovery
// "succeeds", and the operator resumes with stale or zero state.
//
// Mechanics: the whole-program call graph is rooted three ways — at
// every OnTuple/OnTupleBatch method (the mutation closure, `go` edges
// included), at each type's SnapshotState (the read closure), and at
// its RestoreState (the restore closure). A write is a direct
// assignment, an element or chained write, an address-of, or a
// pointer-receiver method call on the field (x.f.Mutate() mutates the
// state f owns). A restore-write uses the same write notion; a
// snapshot-read is any mention.
//
// A field that is a struct held by value is the holder's own state: its
// fields are checked as the holder's, to any depth (ScalarManager.lc is
// a window.Lifecycle, and each codec that holds one must read and write
// all six of its cursors). A holder that exempts the field exempts what
// is under it; a struct reached through a pointer may be shared and
// stays its own type's business.
//
// Soundness limits (see DESIGN.md §14): mutations reached only through
// untyped func values are invisible; state reached through aliases
// copied out of the struct more than one level deep is attributed to
// the alias's own type; whether a delegate codec (x.f.AppendTo)
// actually serializes every sub-field is the delegate type's problem,
// checked only if that type is itself a Snapshotter.
//
// Intentional exemptions (derived caches rebuilt on demand, fields
// covered by store rewind) carry `//lint:allow snapshotcover <reason>`
// on the field declaration.
var AnalyzerSnapshotcover = &Analyzer{
	Name: "snapshotcover",
	Doc:  "mutable operator state not covered by its checkpoint Snapshotter codec",
	Run:  runSnapshotcover,
}

func runSnapshotcover(prog *Program) []Finding {
	iface := prog.lookupInterface("internal/checkpoint", "Snapshotter")
	if iface == nil {
		return nil
	}
	idx := prog.Funcs()

	tupleRoots := idx.MethodsNamed("OnTuple", "OnTupleBatch")
	if len(tupleRoots) == 0 {
		return nil
	}
	tupleReach := idx.Reachable(tupleRoots, true)

	// Collect every tuple-path write once, keyed by field object.
	writtenAt := map[*types.Var]token.Pos{}
	for fn := range tupleReach {
		scanAccesses(fn, func(a Access) {
			if !a.Kind.IsWrite() {
				return
			}
			if prev, ok := writtenAt[a.Field]; !ok || a.Sel.Pos() < prev {
				writtenAt[a.Field] = a.Sel.Pos()
			}
		})
	}

	var out []Finding
	for _, named := range prog.namedTypes() {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if !types.Implements(types.NewPointer(named), iface) && !types.Implements(named, iface) {
			continue
		}
		snapFn := methodFn(idx, named, "SnapshotState")
		restFn := methodFn(idx, named, "RestoreState")
		if snapFn == nil || restFn == nil {
			// Contract satisfied through an embedded delegate; the
			// declaring type is checked in its own right.
			continue
		}

		snapSeen := fieldTouches(idx, idx.Reachable([]*Fn{snapFn}, true), false)
		restWritten := fieldTouches(idx, idx.Reachable([]*Fn{restFn}, true), true)

		tname := named.Obj().Name()
		var check func(st *types.Struct, path string)
		check = func(st *types.Struct, path string) {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				pos := prog.Fset.Position(f.Pos())
				if inner, ok := f.Type().Underlying().(*types.Struct); ok && !prog.Allowed("snapshotcover", pos) {
					check(inner, path+f.Name()+".")
				}
				wpos, written := writtenAt[f]
				if !written {
					continue
				}
				if !snapSeen[f] {
					out = append(out, Finding{
						Pos:      pos,
						Analyzer: "snapshotcover",
						Msg: fmt.Sprintf("field %s.%s%s is mutated on the tuple path (e.g. %s) but never read by (*%s).SnapshotState — checkpoints silently drop it",
							tname, path, f.Name(), shortPos(prog.Fset, wpos), tname),
					})
				}
				if !restWritten[f] {
					out = append(out, Finding{
						Pos:      pos,
						Analyzer: "snapshotcover",
						Msg: fmt.Sprintf("field %s.%s%s is mutated on the tuple path (e.g. %s) but never written by (*%s).RestoreState — recovery resumes with stale state",
							tname, path, f.Name(), shortPos(prog.Fset, wpos), tname),
					})
				}
			}
		}
		check(st, "")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// methodFn resolves the declared module method named name on *named.
func methodFn(idx *funcIndex, named *types.Named, name string) *Fn {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return idx.FnOf(f)
}

// fieldTouches collects fields touched across a reachable set:
// writesOnly restricts to mutating accesses (the restore closure),
// otherwise any mention counts (the snapshot closure).
func fieldTouches(idx *funcIndex, reach map[*Fn]bool, writesOnly bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for fn := range reach {
		scanAccesses(fn, func(a Access) {
			if writesOnly && !a.Kind.IsWrite() {
				return
			}
			out[a.Field] = true
		})
	}
	return out
}

// shortPos renders a position as base-file:line for messages.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			name = name[i+1:]
			break
		}
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
