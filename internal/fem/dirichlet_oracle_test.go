package fem

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/volume"
)

// fusedDirichlet is the elimination ApplyDirichlet used to be, kept as
// the oracle of eliminate-then-patch: one pass over the rows of k that
// filters the matrix, records the coupling block and, fused into it,
// subtracts every free row's coupling terms from f in column order. It
// is what _bench/replay.go's divergence gate implicitly compares the
// pipeline against, so the two must agree bit for bit.
func fusedDirichlet(k *sparse.CSR, f []float64, bc map[int32]geom.Vec3) (elim *sparse.CSR, bcPtr []int, bcRows []int32, bcCoef []float64) {
	n := k.N
	constrained := make([]bool, n)
	val := make([]float64, n)
	for node, d := range bc {
		for i, v := range [3]float64{d.X, d.Y, d.Z} {
			constrained[3*int(node)+i] = true
			val[3*int(node)+i] = v
		}
	}
	rowPtr := make([]int64, n+1)
	var col []int32
	var kval []float64
	coupling := make([][]int32, n)
	coef := make([][]float64, n)
	for i := 0; i < n; i++ {
		if constrained[i] {
			col, kval = append(col, int32(i)), append(kval, 1)
			f[i] = val[i]
		} else {
			for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
				j, v := k.Col[p], k.Val[p]
				if constrained[j] {
					f[i] -= v * val[j]
					coupling[j], coef[j] = append(coupling[j], int32(i)), append(coef[j], v)
				} else {
					col, kval = append(col, j), append(kval, v)
				}
			}
		}
		rowPtr[i+1] = int64(len(col))
	}
	bcPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		bcRows, bcCoef = append(bcRows, coupling[j]...), append(bcCoef, coef[j]...)
		bcPtr[j+1] = len(bcRows)
	}
	return &sparse.CSR{N: n, RowPtr: rowPtr, Col: col, Val: kval}, bcPtr, bcRows, bcCoef
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestApplyDirichletIsEliminateThenPatch: ApplyDirichlet(bc), and
// Eliminate on the node set followed by PatchDirichlet(bc) on a forked
// System — the cold registration's path — both produce the fused
// elimination's matrix, right-hand side and coupling block bit for bit,
// on both meshers, with a loaded right-hand side and boundary values
// that include zeros of both signs and denormals. Every interior node
// next to the surface couples to several constrained columns, so the
// order a row's terms are subtracted in shows in the last bit of F.
func TestApplyDirichletIsEliminateThenPatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mesher func(*volume.Labels, mesh.Options) (*mesh.Mesh, error)
	}{
		{"FromLabels", mesh.FromLabels},
		{"FromLabelsBCC", mesh.FromLabelsBCC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := phantomMesh(t, 16, tc.mesher, mesh.Options{CellSize: 2})
			assembled := func() *System {
				sys, err := AssembleContext(context.Background(), m, HeterogeneousBrain(), par.Even(m.NumNodes(), 2))
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.AddBodyForce(geom.V(3, -7, -40), nil); err != nil {
					t.Fatal(err)
				}
				return sys
			}
			surf, err := m.ExtractSurface(func(volume.Label) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			special := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310}
			bc := map[int32]geom.Vec3{}
			for i, node := range surf.NodeID {
				bc[node] = geom.V(0.37*float64(i%7)-1.1, special[i%len(special)], 1e-3/float64(1+i%5))
			}

			ref := assembled()
			wantK, wantPtr, wantRows, wantCoef := fusedDirichlet(ref.K, ref.F, bc)
			coupled, most := 0, 0
			for i := 0; i < ref.NumDOF; i++ {
				n := 0
				for _, j := range ref.K.Col[ref.K.RowPtr[i]:ref.K.RowPtr[i+1]] {
					if _, ok := bc[j/3]; ok {
						n++
					}
				}
				if _, ok := bc[int32(i/3)]; !ok && n > 1 {
					coupled++
					most = max(most, n)
				}
			}
			if coupled == 0 {
				t.Fatal("no free row couples to several constrained columns: the order is untested")
			}
			t.Logf("%d free rows couple to several constrained columns (up to %d)", coupled, most)

			applied := assembled()
			if err := applied.ApplyDirichlet(bc); err != nil {
				t.Fatal(err)
			}
			loaded := assembled()
			op, err := loaded.Eliminate(surf.NodeID)
			if err != nil {
				t.Fatal(err)
			}
			forked := op.NewSystem(m)
			copy(forked.F, loaded.F)
			if _, err := forked.PatchDirichlet(context.Background(), bc); err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				path string
				sys  *System
			}{{"ApplyDirichlet", applied}, {"Eliminate + PatchDirichlet", forked}} {
				k := got.sys.K
				if !slices.Equal(k.RowPtr, wantK.RowPtr) || !slices.Equal(k.Col, wantK.Col) || !sameBits(k.Val, wantK.Val) {
					t.Errorf("%s: eliminated matrix differs from the fused elimination", got.path)
				}
				if !sameBits(got.sys.F, ref.F) {
					t.Errorf("%s: right-hand side differs from the fused elimination", got.path)
				}
				if !slices.Equal(got.sys.bcPtr, wantPtr) || !slices.Equal(got.sys.bcRows, wantRows) || !sameBits(got.sys.bcCoef, wantCoef) {
					t.Errorf("%s: coupling block differs from the fused elimination", got.path)
				}
			}
		})
	}
}
