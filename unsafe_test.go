package spear

import "testing"

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
	_, files, _ := parseSources(t)
	importers := map[string]bool{}
	for _, fl := range files {
		for _, im := range fl.f.Imports {
			if im.Path.Value == `"unsafe"` {
				importers[fl.path] = true
			}
		}
	}
	for path := range importers {
		if _, ok := unsafeAllowed[path]; !ok {
			t.Errorf("%s imports unsafe: keep it in the allowlisted file, or give unsafeAllowed a reason", path)
		}
	}
	for _, p := range allowProblems("unsafeAllowed", unsafeAllowed, importers) {
		t.Error(p)
	}
	if len(files) == 0 {
		t.Fatal("found no Go files: the scan no longer sees the source")
	}
}
