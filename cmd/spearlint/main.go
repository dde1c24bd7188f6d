// Command spearlint is SPEAr's in-repo static analyzer, built on the
// standard library only (go/ast + go/types, no go/packages and no
// external dependencies). It type-checks each package in isolation and
// runs five project-specific correctness checks; `make check` enforces
// them.
//
// Usage:
//
//	spearlint [flags] [./... | dir | dir/...]...
//
// With no arguments it analyzes ./... from the current directory. The
// exit status is 0 when the tree is clean, 1 when findings were
// reported, 2 on a load error.
//
// Checks (`//lint:ignore <check> <reason>` on or directly above the
// offending line suppresses one occurrence — the reason is mandatory):
//
//	globalrand            math/rand global source in library code
//	goroutine-discipline  go func literals without lifecycle discipline
//	eventtime             time.Now inside event-time packages
//	floatcmp              ==/!= between computed floats in numeric kernels
//	errcheck-lite         dropped errors from tuple codec / spill store
//
// What a tuple costs on the hot paths, the lock-free contracts and the
// flate writer pool are tested where they are declared, not linted
// (DESIGN.md §9.1).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("spearlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	catalog := fs.Bool("catalog", false, "print the analyzer catalogue and exit")
	verbose := fs.Bool("v", false, "print per-package progress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *catalog {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	paths := fs.Args()
	if len(paths) == 0 {
		paths = []string{"./..."}
	}
	var pkgs []*Pkg
	for _, arg := range paths {
		ps, err := load(arg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pkgs = append(pkgs, ps...)
	}
	if *verbose {
		for _, p := range pkgs {
			rel := p.Rel
			if rel == "" {
				rel = "."
			}
			fmt.Fprintf(stderr, "spearlint: %s (%s, %d files)\n", rel, p.Name, len(p.Files))
		}
	}

	findings := runAnalyzers(pkgs, analyzers)
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "spearlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// load resolves one command-line path argument into packages. "p/..."
// walks the tree rooted at p; a plain directory loads just that
// directory.
func load(arg string) ([]*Pkg, error) {
	if arg == "./..." || arg == "..." {
		root, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		return walkTree(root)
	}
	if strings.HasSuffix(arg, "/...") {
		return walkTree(filepath.Clean(strings.TrimSuffix(arg, "/...")))
	}
	dir := filepath.Clean(arg)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(cwd, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = filepath.Base(abs)
	}
	if rel == "." {
		rel = ""
	}
	return loadDir(abs, filepath.ToSlash(rel))
}
