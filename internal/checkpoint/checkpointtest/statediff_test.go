package checkpointtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spear/internal/tuple"
)

type planted struct {
	in   inner
	ptr  *inner
	byID map[string]inner
	xs   []float64
	nan  float64
	fn   func()
	same *inner // one object on both sides: equal without a walk
	skip int    // differs, and allowed to
	str  tuple.Value
	num  tuple.Value
}

type inner struct{ n int64 }

// TestStateDiffFindsEachPlantedDifference plants one difference in a
// by-value struct, behind a pointer, in a map value, in a slice element,
// in a NaN's payload, in a func's nil-ness, in the bytes of two strings
// of one length and in the kind of one payload (tuple.Value holds both
// as a pointer), each of which must come back with its path; the allowed
// one must not.
func TestStateDiffFindsEachPlantedDifference(t *testing.T) {
	shared := &inner{n: 9}
	mk := func() planted {
		return planted{
			in: inner{1}, ptr: &inner{2}, byID: map[string]inner{"a": {3}, "b": {4}},
			xs: []float64{5, 6}, nan: math.Float64frombits(0x7ff8000000000002), fn: func() {}, same: shared, skip: 7,
			str: tuple.String_(strings.Repeat("ab", 2)), num: tuple.Int(5),
		}
	}
	live, restored := mk(), mk()
	restored.in.n, restored.ptr.n, restored.byID["b"], restored.xs[1] = 0, 0, inner{0}, 0
	restored.nan, restored.fn, restored.skip = math.NaN(), nil, 0
	restored.str, restored.num = tuple.String_("abba"), tuple.Float(math.Float64frombits(5))
	got := StateDiff(live, restored, map[string]string{"skip": "planted"})
	want := []string{"byID[b].n: ", "fn is nil: ", "in.n: ", "nan: ", "num: ", "ptr.n: ", "str: ", "xs[1]: "}
	if len(got) != len(want) {
		t.Fatalf("StateDiff reported %d differences, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("difference %d: got %q, want one at %q", i, got[i], strings.TrimSuffix(want[i], ": "))
		}
	}
	if d := StateDiff(live, mk(), nil); len(d) != 0 {
		t.Errorf("equal values (fresh maps, pointers and funcs): %q", d)
	}
}

// TestStateDiffRejectsAStaleAllowEntry: an entry that names no field, or
// a field that does not differ, is reported — an allow table holds what a
// restore does not give back and nothing more.
func TestStateDiffRejectsAStaleAllowEntry(t *testing.T) {
	a, b := inner{1}, inner{1}
	for _, path := range []string{"n", "nosuch"} {
		if d := StateDiff(a, b, map[string]string{path: "stale"}); len(d) != 1 || !strings.Contains(d[0], "no difference there to excuse") {
			t.Errorf("allow %q over equal values: %q", path, d)
		}
	}
}

// TestEverySnapshotterHasARoundTripCase is the inventory: every type the
// module declares SnapshotState on (outside tests and testdata) must have
// a TestRoundTrip<Type> in a test file of its own directory, which checks
// it with StateDiff. A method declared on a type that structs of its
// package embed is promoted, so it stands for each embedding struct
// instead (core's shell for its four managers). A Snapshotter added
// without one fails here.
func TestEverySnapshotterHasARoundTripCase(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	snapshotters := map[string][]string{}         // dir → types
	embedders := map[string]map[string][]string{} // dir → type → structs embedding it
	tests := map[string]map[string]bool{}         // dir → test function names
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, isTest := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && !isTest {
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						typ := fl.Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if id, ok := typ.(*ast.Ident); ok && len(fl.Names) == 0 {
							if embedders[dir] == nil {
								embedders[dir] = map[string][]string{}
							}
							embedders[dir][id.Name] = append(embedders[dir][id.Name], ts.Name.Name)
						}
					}
				}
			}
			fd, ok := decl.(*ast.FuncDecl)
			switch {
			case !ok:
			case isTest && fd.Recv == nil:
				if tests[dir] == nil {
					tests[dir] = map[string]bool{}
				}
				tests[dir][fd.Name.Name] = true
			case !isTest && fd.Recv != nil && fd.Name.Name == "SnapshotState":
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				snapshotters[dir] = append(snapshotters[dir], recv.(*ast.Ident).Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for dir, declared := range snapshotters {
		var types []string
		for _, typ := range declared {
			if outer := embedders[dir][typ]; len(outer) > 0 {
				types = append(types, outer...)
			} else {
				types = append(types, typ)
			}
		}
		for _, typ := range types {
			n++
			if !tests[dir]["TestRoundTrip"+typ] {
				rel, _ := filepath.Rel(root, dir)
				t.Errorf("%s.%s declares SnapshotState but %s has no TestRoundTrip%s", filepath.Base(dir), typ, rel, typ)
			}
		}
	}
	if n < 4 {
		t.Errorf("found %d Snapshotters, want at least the four managers of internal/core", n)
	}
}
