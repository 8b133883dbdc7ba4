package perfgate

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// buildOutput is a faithful slice of `go build -gcflags=-m=1` output:
// package banners, inlining chatter, param-leak annotations, the two
// escape shapes the gate attributes, an inlining-duplicated escape and
// a stdlib one at its GOROOT position.
const buildOutput = `# repro/internal/sparse
internal/sparse/csr.go:34:20: fmt.Sprintf("entry (%d,%d)", ... argument...) escapes to heap
internal/sparse/csr.go:83:7: &CSR{...} escapes to heap
internal/sparse/csr.go:83:7: &CSR{...} escapes to heap
internal/sparse/csr.go:141:7: m does not escape
internal/sparse/csr.go:141:22: x does not escape
internal/sparse/csr.go:141:25: leaking param: y
# repro/internal/solver
internal/solver/gmres.go:139:14: func literal escapes to heap
internal/solver/gmres.go:303:2: moved to heap: stats
internal/solver/gmres.go:27:6: can inline norm2
/usr/local/go/src/slices/sort.go:10:6: make([]int, n) escapes to heap
not a diagnostic line
`

func TestParseDiagnostics(t *testing.T) {
	diags := ParseDiagnostics([]byte(buildOutput))
	want := []Diag{
		{File: "internal/solver/gmres.go", Line: 139, Col: 14, Text: "func literal escapes to heap"},
		{File: "internal/solver/gmres.go", Line: 303, Col: 2, Text: "moved to heap: stats"},
		{File: "internal/sparse/csr.go", Line: 34, Col: 20,
			Text: `fmt.Sprintf("entry (%d,%d)", ... argument...) escapes to heap`},
		// The duplicated escape at 83:7 collapses to one.
		{File: "internal/sparse/csr.go", Line: 83, Col: 7, Text: "&CSR{...} escapes to heap"},
	}
	if len(diags) != len(want) {
		t.Fatalf("ParseDiagnostics = %d diags, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		if diags[i] != w {
			t.Errorf("diag %d = %+v, want %+v", i, diags[i], w)
		}
	}
}

func TestAttributeCountsAndContract(t *testing.T) {
	diags := ParseDiagnostics([]byte(buildOutput))
	extents := []lint.FuncExtent{
		{File: "internal/sparse/csr.go", Pkg: "internal/sparse", Name: "CSR.MulVec",
			StartLine: 141, EndLine: 158, NoEscape: true, Hotpath: true},
		{File: "internal/solver/gmres.go", Pkg: "internal/solver", Name: "gmresCycle",
			StartLine: 127, EndLine: 249, NoEscape: true, Hotpath: true},
		{File: "internal/solver/gmres.go", Pkg: "internal/solver", Name: "GMRESContext",
			StartLine: 258, EndLine: 380},
	}
	rep := Attribute(diags, extents)

	// The func-literal escape at gmres.go:139 lands inside the
	// //lint:noescape gmresCycle extent: a contract finding. The moved-to
	// -heap at 303 lands in GMRESContext, which is unannotated, and the
	// csr.go escapes lie outside MulVec's extent: no finding.
	if len(rep.Contract) != 1 {
		t.Fatalf("Contract = %v, want exactly the gmresCycle escape", rep.Contract)
	}
	f := rep.Contract[0]
	if f.Pos != "internal/solver/gmres.go:139" ||
		!strings.Contains(f.Msg, "//lint:noescape kernel gmresCycle") ||
		!strings.Contains(f.Msg, "func literal escapes to heap") {
		t.Errorf("contract finding = %s, want the gmresCycle func-literal escape", f)
	}

	// Both annotated kernels appear in the status list, sorted by name,
	// with their escape totals.
	if len(rep.Kernels) != 2 ||
		rep.Kernels[0].Name != "CSR.MulVec" || rep.Kernels[0].Escapes != 0 ||
		rep.Kernels[1].Name != "gmresCycle" || rep.Kernels[1].Escapes != 1 {
		t.Errorf("Kernels = %+v, want [CSR.MulVec:0 gmresCycle:1]", rep.Kernels)
	}
}
