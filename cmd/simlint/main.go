// Command simlint runs the project-native static-analysis suite over
// the module: the analyzers in internal/lint that mechanically enforce
// the pipeline's concurrency, telemetry, error-handling, numerical-
// kernel, and coordinate-frame invariants.
//
// Usage:
//
//	go run ./cmd/simlint [-list] [-format text|sarif] [pattern ...]
//
// Patterns are module-relative package paths; "./..." (the default)
// covers the whole module, "./internal/..." a subtree, "./cmd/simlint"
// one package. Findings print as file:line:col: analyzer: message (or
// as SARIF 2.1.0 with -format sarif) and any unsuppressed finding
// makes the exit status non-zero, so the command slots directly into
// scripts/check.sh and CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers, then exit")
	format := flag.String("format", "text", "report format: text or sarif")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-list] [-format text|sarif] [pattern ...]\n\npatterns default to ./... (the whole module)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		printList(analyzers)
		return
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "simlint: unknown format %q (want text or sarif)\n", *format)
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	mod, err := lint.NewModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	pkgs, err := mod.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var selected []*lint.Package
	for _, pkg := range pkgs {
		if matchesAny(pkg.RelPath, patterns) {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "simlint: no packages match %v\n", patterns)
		os.Exit(2)
	}

	findings := lint.Run(selected, analyzers)

	switch *format {
	case "text":
		err = lint.WriteText(os.Stdout, root, findings)
	case "sarif":
		err = lint.WriteSARIF(os.Stdout, root, findings, analyzers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// printList writes the analyzer inventory. (Span names and metrics need
// no listing: they are typed values in internal/obs/names.go.)
func printList(analyzers []lint.Analyzer) {
	fmt.Println("simlint analyzers:")
	for _, a := range analyzers {
		fmt.Printf("  %-10s %s\n", a.Name(), a.Doc())
	}
	fmt.Println("\nsuppress a finding with:  //lint:ignore <analyzer> <reason> (the module itself carries none; TestModuleIsSimlintClean pins that)")
	fmt.Println("annotate a kernel with:   //lint:hotpath (enables hotalloc + hotreach checks)")
	fmt.Println("pin a kernel's escapes:   //lint:noescape (enforced by cmd/perfgate against compiler facts)")
}

// matchesAny reports whether the module-relative package path matches
// one of the ./...-style patterns.
func matchesAny(relPath string, patterns []string) bool {
	for _, p := range patterns {
		p = strings.TrimPrefix(filepath.ToSlash(p), "./")
		switch {
		case p == "..." || p == "":
			return true
		case strings.HasSuffix(p, "/..."):
			base := strings.TrimSuffix(p, "/...")
			if relPath == base || strings.HasPrefix(relPath, base+"/") {
				return true
			}
		case relPath == p:
			return true
		}
	}
	return false
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
