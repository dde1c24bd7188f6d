package spear

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// unsafeAllowed names the non-test files that may import unsafe, each
// with its reason.
var unsafeAllowed = map[string]string{
	"internal/tuple/tuple.go": "the two-word Value: a kind's tag or a string's bytes as one pointer (DESIGN §24)",
}

// TestUnsafeStaysInOneFile: no non-test file of the module or of
// benchmark/ imports unsafe unless unsafeAllowed names it with a reason,
// and an entry that excuses no import fails too, so the list cannot go
// stale.
func TestUnsafeStaysInOneFile(t *testing.T) {
	importers := map[string]bool{}
	files := 0
	parseSources(t, token.NewFileSet(), parser.ImportsOnly, func(path string, f *ast.File) {
		files++
		for _, im := range f.Imports {
			if im.Path.Value == `"unsafe"` {
				importers[filepath.ToSlash(path)] = true
			}
		}
	})
	for path := range importers {
		if _, ok := unsafeAllowed[path]; !ok {
			t.Errorf("%s imports unsafe: keep it in the allowlisted file, or give unsafeAllowed a reason", path)
		}
	}
	for path, why := range unsafeAllowed {
		switch {
		case strings.TrimSpace(why) == "":
			t.Errorf("unsafeAllowed[%q] gives no reason", path)
		case !importers[path]:
			t.Errorf("unsafeAllowed[%q] excuses no import of unsafe: delete the entry", path)
		}
	}
	if files == 0 {
		t.Fatal("found no Go files: the scan no longer sees the source")
	}
}
