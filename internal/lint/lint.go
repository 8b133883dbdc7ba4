// Package lint is the project-native static-analysis framework behind
// cmd/simlint. It loads the module's packages with full type
// information using only the standard library (go/parser + go/types,
// with stdlib dependencies type-checked from source), runs a set of
// Analyzers over them, and reports Findings.
//
// The analyzers are not generic style checks: each one mechanically
// enforces an invariant this codebase's earlier PRs established by
// convention — context plumbing through every long-running stage, span
// open/close pairing around each kernel, %w error wrapping, tolerance-
// based float comparison in the numerical kernels, and allocation-free
// innermost loops on the annotated hot paths.
//
// Since v3 the suite is interprocedural: callgraph.go builds a
// module-wide call graph with bottom-up effect summaries, and three
// analyzers consume it — hotreach (a //lint:hotpath kernel may not
// reach allocating/formatting/locking/blocking code through any call
// chain), ctxprop (a ctx parameter must flow to every context-capable
// callee), and lockscope (nothing blocking is reachable while a
// sync.Mutex is held in the service/telemetry/parallel layers).
//
// Suppressions: a comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// on the same line as a finding, or on the line directly above it,
// suppresses that analyzer's findings there. The reason is mandatory;
// a missing reason or an unknown analyzer name is itself reported.
// Functions may be annotated with the
//
//	//lint:hotpath
//
// directive, which opts their innermost loops into the hotalloc
// analyzer's allocation checks.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"sync"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

// String formats the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Msg)
}

// An Analyzer checks one invariant over a type-checked package.
type Analyzer interface {
	// Name is the analyzer's identifier, used in findings and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc() string
	// Run reports the analyzer's findings in pkg.
	Run(pkg *Package) []Finding
}

// Analyzers returns the full simlint suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		ctxprop{},
		spanend{},
		errwrap{},
		floateq{},
		hotalloc{},
		hotreach{},
		lockscope{},
		nanguard{},
		detguard{},
	}
}

// Result is the complete outcome of one suite run: the surviving
// findings, plus every //lint:ignore waiver encountered — the module
// carries none, which TestModuleIsSimlintClean pins.
type Result struct {
	Findings []Finding
	Waivers  []WaiverUse
}

// Run executes every analyzer over every package and returns the
// surviving findings; see RunAll for the waiver-carrying form.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	return RunAll(pkgs, analyzers).Findings
}

// RunAll executes every analyzer over every package, applies
// //lint:ignore suppressions, and returns the surviving findings sorted
// by file, line, column, analyzer, and message — a total order, so two
// runs over the same tree emit byte-identical reports. Packages are
// analyzed in parallel (each package's type information is independent
// once loading has completed); determinism comes from the final sort,
// not from scheduling. Malformed suppression directives are reported
// under the "lint" pseudo-analyzer and cannot themselves be suppressed.
func RunAll(pkgs []*Package, analyzers []Analyzer) Result {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	results := make([]Result, len(pkgs))
	var wg sync.WaitGroup
	wg.Add(len(pkgs))
	for i, pkg := range pkgs {
		go func(i int, pkg *Package) {
			defer wg.Done()
			results[i] = runPackage(pkg, analyzers, known)
		}(i, pkg)
	}
	wg.Wait()
	return mergeResults(results)
}

// runPackage executes the suite over one package and applies its
// //lint:ignore suppressions.
func runPackage(pkg *Package, analyzers []Analyzer, known map[string]bool) Result {
	sup, waivers, diags := suppressions(pkg, known)
	r := Result{Findings: diags, Waivers: waivers}
	for _, a := range analyzers {
		for _, f := range a.Run(pkg) {
			if !sup.covers(a.Name(), f.Pos) {
				r.Findings = append(r.Findings, f)
			}
		}
	}
	return r
}

// mergeResults concatenates per-package results into the canonical
// sorted report.
func mergeResults(results []Result) Result {
	var res Result
	for _, r := range results {
		res.Findings = append(res.Findings, r.Findings...)
		res.Waivers = append(res.Waivers, r.Waivers...)
	}
	SortFindings(res.Findings)
	sort.Slice(res.Waivers, func(i, j int) bool {
		a, b := res.Waivers[i], res.Waivers[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return res
}

// SortFindings orders findings by file, line, column, analyzer, and
// message — the canonical report order.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
}
