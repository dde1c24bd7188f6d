// Command spearlint is SPEAr's in-repo static analyzer, built on the
// standard library only (go/ast + go/types, no go/packages and no
// external dependencies). It has two layers, both enforced by
// `make check`:
//
// The syntactic layer (default) type-checks each package in isolation
// and runs five project-specific correctness checks. The dataflow layer
// (-ssa) type-checks the whole module with real cross-package types,
// builds per-function CFGs and a class-hierarchy call graph, and runs
// two analyzers that prove the engine's resource and concurrency
// contracts (see cmd/spearlint/internal/ssadf).
//
// Usage:
//
//	spearlint [flags] [./... | dir | dir/...]...
//	spearlint -ssa [module root]
//
// With no arguments it analyzes ./... from the current directory. The
// exit status is 0 when the tree is clean, 1 when findings were
// reported, 2 on a load error.
//
// Syntactic checks (both layers suppress one occurrence with
// `//lint:ignore <check> <reason>` on or directly above the offending
// line — the reason is mandatory):
//
//	globalrand            math/rand global source in library code
//	goroutine-discipline  go func literals without lifecycle discipline
//	eventtime             time.Now inside event-time packages
//	floatcmp              ==/!= between computed floats in numeric kernels
//	errcheck-lite         dropped errors from tuple codec / spill store
//
// What a tuple costs on the hot paths is tested where it is paid, not
// linted: allocation, telemetry, controller-cell and spill-seam gates
// in internal/core, internal/spe and internal/transport (DESIGN.md §9.1).
//
// Dataflow checks:
//
//	poolreturn  sync.Pool.Get result leaking on a return path
//	blockfree   blocking op reachable from code documented lock-free
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spear/cmd/spearlint/internal/ssadf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("spearlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	catalog := fs.Bool("catalog", false, "print the analyzer catalogue and exit")
	verbose := fs.Bool("v", false, "print per-package progress")
	ssaMode := fs.Bool("ssa", false, "run the whole-program dataflow analyzers instead of the syntactic checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *catalog {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc)
		}
		for _, a := range ssadf.Analyzers {
			fmt.Fprintf(stdout, "%-22s %s (ssa)\n", a.Name, a.Doc)
		}
		return 0
	}
	if *ssaMode {
		return runSSA(fs.Args(), stdout, stderr, *verbose)
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

// runSSA executes the dataflow layer over one module tree. The single
// optional argument is the module root (default: the current
// directory); "./..." is accepted and means the same thing, so the
// Makefile can pass a uniform argument to both layers.
func runSSA(args []string, stdout, stderr *os.File, verbose bool) int {
	root := "."
	switch len(args) {
	case 0:
	case 1:
		root = strings.TrimSuffix(args[0], "/...")
		if root == "" || root == "."+string(filepath.Separator) {
			root = "."
		}
	default:
		fmt.Fprintln(stderr, "spearlint -ssa: at most one module-root argument")
		return 2
	}
	root, err := filepath.Abs(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	modPath, err := modulePath(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	prog, err := ssadf.SharedLoader().Load(root, modPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if verbose {
		fmt.Fprintf(stderr, "spearlint -ssa: %s (%d packages, %d type diagnostics)\n",
			modPath, len(prog.Pkgs), len(prog.TypeErrors))
		for _, e := range prog.TypeErrors {
			fmt.Fprintf(stderr, "spearlint -ssa: note: %v\n", e)
		}
	}
	findings := ssadf.RunAll(prog, ssadf.Analyzers)
	for _, f := range findings {
		// Report module-relative paths for stable, clickable output.
		if rel, rerr := filepath.Rel(root, f.Pos.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "spearlint -ssa: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("spearlint -ssa: %v (the dataflow layer analyzes a whole module)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "module ") {
			return strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
		}
	}
	return "", fmt.Errorf("spearlint -ssa: no module line in %s/go.mod", root)
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
