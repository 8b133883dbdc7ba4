// Command perfgate enforces the kernel allocation contract: it compiles
// the module with escape-analysis diagnostics enabled (-gcflags=-m=1)
// and requires every function annotated //lint:noescape (the hot
// numerical kernels: SpMV, element stiffness, the GMRES cycle, assembly
// compaction, the EDT scans) to compile with zero heap escapes inside
// its declaration.
//
// Usage:
//
//	go run ./cmd/perfgate
//
// It takes no flags and keeps no baseline: each escape inside a kernel
// prints as file:line: message and makes the exit status non-zero.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/perfgate"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfgate (takes no arguments)")
		os.Exit(2)
	}
	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	rep, err := perfgate.Analyze(root)
	if err != nil {
		fatal(err)
	}
	for _, f := range rep.Contract {
		fmt.Println(f)
	}
	if len(rep.Contract) > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d finding(s)\n", len(rep.Contract))
		os.Exit(1)
	}
	fmt.Printf("perfgate: %d //lint:noescape kernels, 0 heap escapes\n", len(rep.Kernels))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfgate:", err)
	os.Exit(2)
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
