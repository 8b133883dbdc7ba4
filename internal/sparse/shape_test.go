package sparse

import (
	"testing"

	"repro/internal/par"
)

// TestConstructorsSatisfyCheckShape calls every constructor of CSR and
// CSR32 and runs the type's validator on the result, so the shape
// invariant the kernels index by is pinned from the test side as well
// as by the checkShape call inside each constructor.
func TestConstructorsSatisfyCheckShape(t *testing.T) {
	type shaped interface{ checkShape() }
	build := func() *CSR {
		b := NewBuilder(6)
		for i := 0; i < 6; i++ {
			b.Add(i, i, 4)
			b.Add(i, (i+3)%6, -1)
		}
		return b.Build()
	}
	for _, tc := range []struct {
		name  string
		build func() (shaped, error)
	}{
		{"Builder.Build", func() (shaped, error) { return build(), nil }},
		{"Builder.Build/empty", func() (shaped, error) { return NewBuilder(3).Build(), nil }},
		{"BlockAssembler.Compact", func() (shaped, error) {
			a, err := NewBlockAssembler([]int{0, 2, 3}, []int32{0, 1, 1})
			if err != nil {
				return nil, err
			}
			a.AddBlock(0, 0, &[3][3]float64{{2, 0, 1}, {0, 2, 0}, {1, 0, 2}})
			a.AddBlock(0, 1, &[3][3]float64{{0, -1, 0}, {0, 0, 0}, {0, 0, -1}})
			a.AddBlock(1, 1, &[3][3]float64{{3, 0, 0}, {0, 3, 0}, {0, 0, 3}})
			return a.Compact(par.Even(2, 2))
		}},
		{"CSR.DiagonalBlock", func() (shaped, error) { return build().DiagonalBlock(1, 5), nil }},
		{"CSR.DiagonalBlock/empty", func() (shaped, error) { return build().DiagonalBlock(2, 2), nil }},
		{"NewCSR32", func() (shaped, error) { return NewCSR32(build()), nil }},
		{"CSRFromParts", func() (shaped, error) {
			m := build()
			return CSRFromParts(m.N, m.RowPtr, m.Col, m.Val)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			m.checkShape() // panics on a violated invariant
		})
	}
}
