package spear

import (
	"os"
	"regexp"
	"testing"
)

var (
	designHeading = regexp.MustCompile(`(?m)^#+ (\d+(?:\.\d+)*)\.? `)
	designRef     = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]*§(\d+(?:\.\d+)*)`)
)

// TestDesignReferencesResolve: every "DESIGN.md §N[.M]" (or "DESIGN §N")
// cited in the module's Go files names a heading DESIGN.md has, so a
// renumbered or deleted section cannot leave a comment pointing nowhere.
// The paper's own sections ("paper §4.2", a bare "§5.5") are not
// DESIGN's and are not checked.
func TestDesignReferencesResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(doc), -1) {
		sections[m[1]] = true
	}
	paths, err := goFiles()
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllStringSubmatch(string(src), -1) {
			refs++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no such heading", path, m[1])
			}
		}
	}
	if refs == 0 || len(sections) == 0 {
		t.Fatalf("found %d references and %d headings: the patterns no longer match", refs, len(sections))
	}
}
