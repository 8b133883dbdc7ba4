package fem

import (
	"testing"

	"repro/internal/volume"
)

// TestConstructorsSatisfyCheckShape calls every constructor of System,
// Operator and InterpTable and runs the type's validator on the result, so the shape invariant the solver and the resampling gather
// index by is pinned from the test side as well as by the checkShape
// call inside each constructor (sparse has the same test for CSR).
func TestConstructorsSatisfyCheckShape(t *testing.T) {
	type shaped interface{ checkShape() }
	const n = 5
	sys, _ := cubeSystem(t, n, 2, 2)
	tab := sys.BuildInterpTable(volume.NewGrid(n, n, n, 1))
	for _, tc := range []struct {
		name  string
		build func() (shaped, error)
	}{
		{"Assemble", func() (shaped, error) { return sys, nil }},
		{"OperatorFromParts", func() (shaped, error) {
			return OperatorFromParts(sys.K, sys.NodePart, sys.Constrained, nil, nil, nil)
		}},
		{"Operator.Eliminate", func() (shaped, error) { return sys.Eliminate([]int32{0, 3}) }},
		{"Operator.NewSystem", func() (shaped, error) { return sys.NewSystem(sys.Mesh), nil }},
		{"BuildInterpTable", func() (shaped, error) { return tab, nil }},
		{"InterpTableFromParts", func() (shaped, error) { return InterpTableFromParts(tab.TableParts()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			v.checkShape() // panics on a violated invariant
		})
	}
}
