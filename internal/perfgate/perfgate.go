// Package perfgate checks one compiler fact: the hot kernels do not
// allocate.
//
// The paper's real-time constraint (a full registration solve inside
// the intraoperative imaging loop) is guarded in two layers: simlint
// proves structural properties of the source (no allocation or
// blocking reachable from hot kernels), and perfgate checks what the
// compiler actually did. It compiles the module with
//
//	-gcflags=-m=1
//
// parses the escape-analysis verdicts ("x escapes to heap", "moved to
// heap: x") out of the build output, and attributes them to function
// declarations. A function carrying the //lint:noescape directive (the
// SpMV, element stiffness, GMRES cycle, assembly compaction and EDT
// scan kernels) must compile with zero heap escapes inside its
// declaration; anything else is a finding. Allocation outside the
// kernels is not gated here: the benchmark ledger measures it directly
// (runtime.alloc_mb_per_scan, fem.assemble_alloc_mb, peak_rss_mb).
package perfgate

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint"
)

// Diag is one deduplicated escape-analysis verdict — a value the
// compiler placed on the heap — positioned in a module-relative file.
type Diag struct {
	File      string // module-relative, slash-separated
	Line, Col int
	// Text is the diagnostic body after the position prefix, e.g.
	// "make([]float64, n) escapes to heap" or "moved to heap: stats".
	Text string
}

// diagRe matches one "file:line:col: text" compiler diagnostic line.
var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// atoi converts a digits-only capture of diagRe; the pattern guarantees
// it parses, so a failure collapses to 0 rather than an error path.
func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

// ParseDiagnostics extracts the heap-escape verdicts from raw
// `go build -gcflags=-m=1` output. Everything else — inlining
// decisions, "leaking param" annotations, "does not escape" verdicts,
// package banners — is ignored. Diagnostics are deduplicated by
// position and text: the compiler re-reports an escape at its original
// source position once per inlined copy, which would otherwise make a
// kernel's total depend on how many callers inline it.
// Absolute paths are dropped too: stdlib code inlined into module
// functions re-reports at its GOROOT position, which is toolchain
// debt, not ours.
func ParseDiagnostics(output []byte) []Diag {
	seen := make(map[Diag]bool)
	var out []Diag
	for _, raw := range strings.Split(string(output), "\n") {
		m := diagRe.FindStringSubmatch(strings.TrimRight(raw, "\r"))
		if m == nil || filepath.IsAbs(m[1]) {
			continue
		}
		text := m[4]
		if !strings.HasSuffix(text, "escapes to heap") && !strings.HasPrefix(text, "moved to heap:") {
			continue
		}
		d := Diag{File: filepath.ToSlash(m[1]), Line: atoi(m[2]), Col: atoi(m[3]), Text: text}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// Finding is one heap escape inside a //lint:noescape kernel.
type Finding struct {
	Pos string // "internal/sparse/csr.go:141"
	Msg string
}

// String renders the finding one-per-line, mirroring simlint output.
func (f Finding) String() string { return f.Pos + ": " + f.Msg }

// KernelStatus reports one //lint:noescape function's compliance.
type KernelStatus struct {
	Name    string // "CSR.MulVec"
	File    string
	Escapes int
}

// Report is the outcome of one Analyze run.
type Report struct {
	// Kernels lists every //lint:noescape function, with the number of
	// escapes attributed inside it (zero means the contract holds).
	Kernels []KernelStatus
	// Contract holds the findings: one per escape inside a
	// //lint:noescape function. A passing run has none.
	Contract []Finding
}

// BuildDiagnostics compiles the module at root with escape-analysis
// verdicts enabled and returns the raw combined output. The flag is
// scoped to the module's own packages (./...) so dependency compiles
// stay silent; Go's build cache replays diagnostics for cached
// packages, so a warm run is fast yet complete.
func BuildDiagnostics(root string) ([]byte, error) {
	cmd := exec.Command("go", "build", "-gcflags=./...=-m=1", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("perfgate: go build failed: %w\n%s", err, out)
	}
	return out, nil
}

// Analyze compiles the module at root, parses the diagnostics, and
// attributes them to function declarations via the lint loader's
// syntax scan.
func Analyze(root string) (*Report, error) {
	out, err := BuildDiagnostics(root)
	if err != nil {
		return nil, err
	}
	extents, err := lint.ScanFuncExtents(root)
	if err != nil {
		return nil, err
	}
	return Attribute(ParseDiagnostics(out), extents), nil
}

// Attribute builds the report from parsed diagnostics and declaration
// extents: per-kernel escape totals and the contract findings. It is
// pure, so tests can drive it with canned inputs.
func Attribute(diags []Diag, extents []lint.FuncExtent) *Report {
	byFile := make(map[string][]lint.FuncExtent)
	for _, e := range extents {
		byFile[e.File] = append(byFile[e.File], e)
	}
	kernelEscapes := make(map[string]int) // File + ":" + Name -> escapes
	rep := &Report{}
	for _, d := range diags {
		for _, e := range byFile[d.File] {
			if d.Line >= e.StartLine && d.Line <= e.EndLine && e.NoEscape {
				kernelEscapes[e.File+":"+e.Name]++
				rep.Contract = append(rep.Contract, Finding{
					Pos: fmt.Sprintf("%s:%d", d.File, d.Line),
					Msg: fmt.Sprintf("heap escape inside //lint:noescape kernel %s: %s", e.Name, d.Text),
				})
			}
		}
	}
	for _, e := range extents {
		if e.NoEscape {
			rep.Kernels = append(rep.Kernels, KernelStatus{
				Name: e.Name, File: e.File, Escapes: kernelEscapes[e.File+":"+e.Name],
			})
		}
	}
	sort.Slice(rep.Kernels, func(i, j int) bool { return rep.Kernels[i].Name < rep.Kernels[j].Name })
	return rep
}
