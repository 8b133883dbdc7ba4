package perfgate

import (
	"path/filepath"
	"testing"
)

// TestModulePassesPerfgate is the self-check mirroring cmd/perfgate in
// make check: in the real compile of this module every //lint:noescape
// kernel must compile with zero heap escapes.
func TestModulePassesPerfgate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module with diagnostic flags")
	}
	root := filepath.Join("..", "..")
	rep, err := Analyze(root)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, f := range rep.Contract {
		t.Errorf("%s", f)
	}

	// The paper's kernels must be under contract. Their annotations live
	// in the tree; this pins that nobody silently drops one.
	wantKernels := map[string]bool{
		"CSR.MulVec":                 false,
		"CSR.MulVecRows":             false,
		"CSR32.MulVec":               false,
		"CSR32.MulVecRows":           false,
		"BlockAssembler.compactRows": false,
		"elementStiffness":           false,
		"gmresCycle":                 false,
		"gmresCycle32":               false,
		"axpyDot":                    false,
		"bluFactor.solve":            false,
		"bluFactor.factor":           false,
		"distanceTransform1D":        false,
		"Tet.Shape":                  false,
		"Field.SampleWorld":          false,
		"stepWindow.advance":         false,
	}
	for _, k := range rep.Kernels {
		if _, ok := wantKernels[k.Name]; ok {
			wantKernels[k.Name] = true
		}
		if k.Escapes != 0 {
			t.Errorf("kernel %s (%s) compiles with %d heap escapes, want 0", k.Name, k.File, k.Escapes)
		}
	}
	for name, seen := range wantKernels {
		if !seen {
			t.Errorf("kernel %s is no longer //lint:noescape-annotated", name)
		}
	}
}
