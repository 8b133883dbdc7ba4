package fem

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/numeric"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/sparse"
	"repro/internal/volume"
)

// phantomMesh meshes the size-n phantom. Without an Include filter every
// tissue is meshed, so HeterogeneousBrain meets each of its materials.
func phantomMesh(tb testing.TB, n int, mesher func(*volume.Labels, mesh.Options) (*mesh.Mesh, error), opts mesh.Options) *mesh.Mesh {
	tb.Helper()
	p := phantom.DefaultParams(n)
	m, err := mesher(phantom.GenerateLabels(phantom.GridFor(p), p), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// referenceStiffness assembles K the COO way the two-phase assembly
// replaced: one triplet per non-zero element-matrix entry, elements in
// ascending order, summed by sparse.Builder.
func referenceStiffness(t *testing.T, m *mesh.Mesh, mats Table) *sparse.CSR {
	t.Helper()
	b := sparse.NewBuilder(3 * m.NumNodes())
	for e, tet := range m.Tets {
		ke, err := elementStiffness(m.TetGeom(e), mats.For(m.TetLabel[e]))
		if err != nil {
			t.Fatal(err)
		}
		for a, na := range tet {
			for bn, nb := range tet {
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						if v := ke[a][bn][i][j]; numeric.NonZero(v) {
							b.Add(3*int(na)+i, 3*int(nb)+j, v)
						}
					}
				}
			}
		}
	}
	return b.Build()
}

func TestAssembleMatchesBuilderReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mesher func(*volume.Labels, mesh.Options) (*mesh.Mesh, error)
	}{
		{"FromLabels", mesh.FromLabels},
		{"FromLabelsBCC", mesh.FromLabelsBCC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := phantomMesh(t, 20, tc.mesher, mesh.Options{CellSize: 2})
			mats := HeterogeneousBrain()
			sys, err := AssembleContext(context.Background(), m, mats, par.Even(m.NumNodes(), 3))
			if err != nil {
				t.Fatal(err)
			}
			want := referenceStiffness(t, m, mats)
			got := sys.K
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
				t.Fatalf("pattern differs from the Builder reference: nnz %d vs %d", got.NNZ(), want.NNZ())
			}
			for p, v := range got.Val {
				if !numeric.EqRel(v, want.Val[p], 1e-12) {
					t.Fatalf("entry %d (column %d): %v, reference %v", p, got.Col[p], v, want.Val[p])
				}
			}
			// The compaction must drop something, or the mask is untested.
			_, adj := nodeAdjacency(m, par.Even(m.NumNodes(), 1))
			if full := 9 * len(adj); got.NNZ() >= full {
				t.Errorf("nnz %d not below the full block pattern %d", got.NNZ(), full)
			}
		})
	}
}

// TestAssembleParallelInvariance: every entry of K is summed in element
// order whatever rank owns its row, so the matrix is bit-identical for
// any rank count — which the content-addressed preop-assemble cache and
// the replayed registrations rely on.
func TestAssembleParallelInvariance(t *testing.T) {
	m := phantomMesh(t, 16, mesh.FromLabels, mesh.Options{CellSize: 2})
	mats := HeterogeneousBrain()
	ref, err := AssembleContext(context.Background(), m, mats, par.Even(m.NumNodes(), 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3, 7} {
		sys, err := AssembleContext(context.Background(), m, mats, par.Even(m.NumNodes(), ranks))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sys.K.RowPtr, ref.K.RowPtr) || !slices.Equal(sys.K.Col, ref.K.Col) {
			t.Fatalf("%d ranks: pattern differs from 1 rank", ranks)
		}
		for p, v := range sys.K.Val {
			if math.Float64bits(v) != math.Float64bits(ref.K.Val[p]) {
				t.Fatalf("%d ranks: entry %d is %v, 1 rank gave %v", ranks, p, v, ref.K.Val[p])
			}
		}
	}
}

// TestApplyDirichletMatchesBuilderElimination compares the
// count-then-copy elimination with the Builder-built one it replaced:
// the matrix, the right-hand side and the coupling lists with their
// order.
func TestApplyDirichletMatchesBuilderElimination(t *testing.T) {
	m := phantomMesh(t, 16, mesh.FromLabels, mesh.Options{CellSize: 2})
	sys, err := AssembleContext(context.Background(), m, HeterogeneousBrain(), par.Even(m.NumNodes(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddBodyForce(geom.V(0, 0, -40), nil); err != nil {
		t.Fatal(err)
	}
	surf, err := m.ExtractSurface(func(volume.Label) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	bc := map[int32]geom.Vec3{}
	for i, node := range surf.NodeID {
		bc[node] = geom.V(0.1*float64(i%7), -0.2, 0.05*float64(i%3))
	}

	// Reference elimination on copies of K and F.
	k0 := sys.K
	wantF := append([]float64(nil), sys.F...)
	constrained := make([]bool, sys.NumDOF)
	val := make([]float64, sys.NumDOF)
	for node, d := range bc {
		for i, v := range [3]float64{d.X, d.Y, d.Z} {
			constrained[3*int(node)+i] = true
			val[3*int(node)+i] = v
		}
	}
	type coupling struct {
		rows []int32
		coef []float64
	}
	wantCoupling := map[int]coupling{}
	nb := sparse.NewBuilder(sys.NumDOF)
	for i := 0; i < sys.NumDOF; i++ {
		if constrained[i] {
			nb.Add(i, i, 1)
			wantF[i] = val[i]
			continue
		}
		for p := k0.RowPtr[i]; p < k0.RowPtr[i+1]; p++ {
			j := int(k0.Col[p])
			if constrained[j] {
				wantF[i] -= k0.Val[p] * val[j]
				c := wantCoupling[j]
				c.rows = append(c.rows, int32(i))
				c.coef = append(c.coef, k0.Val[p])
				wantCoupling[j] = c
			} else {
				nb.Add(i, j, k0.Val[p])
			}
		}
	}
	wantK := nb.Build()

	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sys.K.RowPtr, wantK.RowPtr) || !slices.Equal(sys.K.Col, wantK.Col) || !slices.Equal(sys.K.Val, wantK.Val) {
		t.Error("eliminated matrix differs from the Builder-built one")
	}
	if !slices.Equal(sys.F, wantF) {
		t.Error("right-hand side differs")
	}
	if !slices.Equal(sys.Constrained, constrained) || sys.nConstrained != 3*len(bc) {
		t.Error("constrained set differs")
	}
	coupled := 0
	for j := 0; j < sys.NumDOF; j++ {
		lo, hi := sys.bcPtr[j], sys.bcPtr[j+1]
		want := wantCoupling[j]
		if !slices.Equal(sys.bcRows[lo:hi], want.rows) || !slices.Equal(sys.bcCoef[lo:hi], want.coef) {
			t.Fatalf("coupling of DOF %d: rows %v coef %v, want %v %v", j, sys.bcRows[lo:hi], sys.bcCoef[lo:hi], want.rows, want.coef)
		}
		coupled += hi - lo
	}
	if coupled == 0 {
		t.Error("no coupling recorded: the case eliminates nothing")
	}
}
