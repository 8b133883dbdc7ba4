package fem

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/volume"
)

func randTet(rng *rand.Rand) geom.Tet {
	for {
		var t geom.Tet
		for i := range t.P {
			t.P[i] = geom.V(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2)
		}
		if t.Volume() > 0.1 {
			return t
		}
	}
}

func TestMaterialLame(t *testing.T) {
	m := Material{E: 3000, Nu: 0.45}
	lambda, mu := m.Lame()
	// lambda = E nu / ((1+nu)(1-2nu)), mu = E / (2(1+nu)).
	wantMu := 3000.0 / (2 * 1.45)
	wantLambda := 3000.0 * 0.45 / (1.45 * 0.1)
	if math.Abs(mu-wantMu) > 1e-9 || math.Abs(lambda-wantLambda) > 1e-9 {
		t.Errorf("Lame = %v, %v; want %v, %v", lambda, mu, wantLambda, wantMu)
	}
}

func TestMaterialValidate(t *testing.T) {
	if err := (Material{E: 1000, Nu: 0.3}).Validate(); err != nil {
		t.Errorf("valid material rejected: %v", err)
	}
	for _, bad := range []Material{{E: 0, Nu: 0.3}, {E: -1, Nu: 0.3}, {E: 1, Nu: 0.5}, {E: 1, Nu: -0.1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid material %+v accepted", bad)
		}
	}
}

func TestTableFallback(t *testing.T) {
	tab := HeterogeneousBrain()
	if tab.For(volume.LabelFalx).E <= tab.For(volume.LabelBrain).E {
		t.Error("falx should be stiffer than brain")
	}
	if tab.For(volume.Label(99)) != tab.Default {
		t.Error("unknown label should fall back to default")
	}
	if err := tab.Validate(); err != nil {
		t.Error(err)
	}
	if err := HomogeneousBrain().Validate(); err != nil {
		t.Error(err)
	}
}

func TestElementStiffnessSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	mat := Material{E: 3000, Nu: 0.45}
	for trial := 0; trial < 30; trial++ {
		tet := randTet(rng)
		k, err := elementStiffness(tet, mat)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						if math.Abs(k[a][b][i][j]-k[b][a][j][i]) > 1e-6*mat.E {
							t.Fatalf("K not symmetric at (%d,%d,%d,%d)", a, b, i, j)
						}
					}
				}
			}
		}
	}
}

// applyElementK computes K_e * u for a 12-vector u given as per-node
// displacements.
func applyElementK(k [4][4][3][3]float64, u [4]geom.Vec3) [4]geom.Vec3 {
	var out [4]geom.Vec3
	uArr := func(a int) [3]float64 { return [3]float64{u[a].X, u[a].Y, u[a].Z} }
	for a := 0; a < 4; a++ {
		var f [3]float64
		for b := 0; b < 4; b++ {
			ub := uArr(b)
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					f[i] += k[a][b][i][j] * ub[j]
				}
			}
		}
		out[a] = geom.V(f[0], f[1], f[2])
	}
	return out
}

func TestElementStiffnessRigidBodyNullSpace(t *testing.T) {
	// Rigid translations and (linearized) rotations produce zero force.
	rng := rand.New(rand.NewSource(102))
	mat := Material{E: 3000, Nu: 0.4}
	for trial := 0; trial < 20; trial++ {
		tet := randTet(rng)
		k, err := elementStiffness(tet, mat)
		if err != nil {
			t.Fatal(err)
		}
		// Translation.
		tr := geom.V(1, -2, 0.5)
		var uT [4]geom.Vec3
		for a := range uT {
			uT[a] = tr
		}
		for _, f := range applyElementK(k, uT) {
			if f.MaxAbs() > 1e-6*mat.E {
				t.Fatalf("translation produced force %v", f)
			}
		}
		// Infinitesimal rotation: u = omega x p.
		omega := geom.V(0.3, -0.2, 0.1)
		var uR [4]geom.Vec3
		for a := range uR {
			uR[a] = omega.Cross(tet.P[a])
		}
		for _, f := range applyElementK(k, uR) {
			if f.MaxAbs() > 1e-5*mat.E {
				t.Fatalf("rotation produced force %v", f)
			}
		}
	}
}

func TestElementStiffnessPositiveSemiDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	mat := Material{E: 2000, Nu: 0.3}
	for trial := 0; trial < 20; trial++ {
		tet := randTet(rng)
		k, err := elementStiffness(tet, mat)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 20; probe++ {
			var u [4]geom.Vec3
			for a := range u {
				u[a] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			}
			f := applyElementK(k, u)
			energy := 0.0
			for a := range u {
				energy += u[a].Dot(f[a])
			}
			if energy < -1e-8*mat.E {
				t.Fatalf("negative strain energy %v", energy)
			}
		}
	}
}

func TestElementStiffnessDegenerate(t *testing.T) {
	flat := geom.Tet{P: [4]geom.Vec3{
		geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(1, 1, 0),
	}}
	if _, err := elementStiffness(flat, Material{E: 1000, Nu: 0.3}); err == nil {
		t.Error("degenerate element accepted")
	}
}

// cubeSystem builds an assembled FEM system on an n^3 brain cube.
func cubeSystem(t *testing.T, n, cs, ranks int) (*System, *mesh.Mesh) {
	t.Helper()
	g := volume.NewGrid(n, n, n, 1)
	l := volume.NewLabels(g)
	for i := range l.Data {
		l.Data[i] = volume.LabelBrain
	}
	m, err := mesh.FromLabels(l, mesh.Options{CellSize: cs})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := AssembleContext(context.Background(), m, HomogeneousBrain(), par.Even(m.NumNodes(), ranks))
	if err != nil {
		t.Fatal(err)
	}
	return sys, m
}

func TestAssembleGlobalSymmetry(t *testing.T) {
	sys, _ := cubeSystem(t, 6, 2, 2)
	if !sys.K.IsSymmetric(1e-9) {
		t.Error("global stiffness not symmetric")
	}
}

func TestAssembleErrors(t *testing.T) {
	_, m := cubeSystem(t, 4, 2, 1)
	if _, err := AssembleContext(context.Background(), m, Table{Default: Material{E: -1, Nu: 0.3}}, par.Even(m.NumNodes(), 1)); err == nil {
		t.Error("invalid material accepted")
	}
	if _, err := AssembleContext(context.Background(), m, HomogeneousBrain(), par.Even(m.NumNodes()+5, 1)); err == nil {
		t.Error("mismatched partition accepted")
	}
}

// TestPatchTest is the classical FEM patch test: imposing a linear
// displacement field on the entire boundary must reproduce that exact
// field at all interior nodes (linear elements represent linear fields
// exactly).
func TestPatchTest(t *testing.T) {
	sys, m := cubeSystem(t, 8, 2, 3)
	affine := func(p geom.Vec3) geom.Vec3 {
		return geom.V(
			0.01*p.X+0.003*p.Y-0.002*p.Z+0.1,
			-0.004*p.X+0.008*p.Y+0.001*p.Z-0.05,
			0.002*p.X-0.001*p.Y+0.012*p.Z+0.02,
		)
	}
	// Boundary nodes: extract the surface of the whole cube.
	surf, err := m.ExtractSurface(func(volume.Label) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	bc := map[int32]geom.Vec3{}
	for v, node := range surf.NodeID {
		bc[node] = affine(surf.Verts[v])
	}
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	res, err := sys.SolveContext(context.Background(), solver.Options{Tol: 1e-10, MaxIter: 3000, Restart: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("solver did not converge: %v", res.Stats)
	}
	maxErr := 0.0
	for n, u := range res.NodeU {
		want := affine(m.Nodes[n])
		if d := u.Sub(want).MaxAbs(); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1e-6 {
		t.Errorf("patch test failed: max nodal error %v", maxErr)
	}
}

func TestSolveWithoutBCFails(t *testing.T) {
	sys, _ := cubeSystem(t, 4, 2, 1)
	if _, err := sys.SolveContext(context.Background(), solver.Options{}); err == nil {
		t.Error("unconstrained solve accepted")
	}
	if err := sys.ApplyDirichlet(nil); err == nil {
		t.Error("empty Dirichlet set accepted")
	}
	if err := sys.ApplyDirichlet(map[int32]geom.Vec3{9999: {}}); err == nil {
		t.Error("out-of-range boundary node accepted")
	}
}

// TestApplyDirichletTwiceFails pins "call once": a second elimination
// would take its coupling from the already-eliminated matrix and leave
// the free rows' right-hand side at the first call's values, so it is
// refused and the system keeps solving for the first call's conditions.
func TestApplyDirichletTwiceFails(t *testing.T) {
	sys, m := cubeSystem(t, 5, 2, 2)
	first := surfaceBC(t, m, func(p geom.Vec3) geom.Vec3 { return geom.V(0.02*p.Y, 0, 0.01*p.X) })
	if err := sys.ApplyDirichlet(first); err != nil {
		t.Fatal(err)
	}
	f := slices.Clone(sys.F)
	second := surfaceBC(t, m, func(geom.Vec3) geom.Vec3 { return geom.V(0, 0.3, 0) })
	if err := sys.ApplyDirichlet(second); err == nil {
		t.Fatal("second ApplyDirichlet accepted")
	}
	if !slices.Equal(sys.F, f) {
		t.Error("refused ApplyDirichlet changed the right-hand side")
	}
	if _, err := sys.PatchDirichlet(context.Background(), second); err != nil {
		t.Errorf("PatchDirichlet after a refused ApplyDirichlet: %v", err)
	}
}

func TestDirichletValuesPreserved(t *testing.T) {
	sys, m := cubeSystem(t, 6, 2, 2)
	surf, err := m.ExtractSurface(func(volume.Label) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	want := geom.V(0.5, -0.25, 1)
	bc := map[int32]geom.Vec3{}
	for _, node := range surf.NodeID {
		bc[node] = want
	}
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	res, err := sys.SolveContext(context.Background(), solver.Options{Tol: 1e-10, MaxIter: 2000, Restart: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range surf.NodeID {
		if res.NodeU[node].Sub(want).MaxAbs() > 1e-8 {
			t.Fatalf("boundary displacement not preserved at node %d: %v", node, res.NodeU[node])
		}
	}
	// Uniform boundary displacement -> rigid translation of everything.
	for n, u := range res.NodeU {
		if u.Sub(want).MaxAbs() > 1e-6 {
			t.Fatalf("interior node %d = %v, want uniform %v", n, u, want)
		}
	}
}

func TestDOFPartition(t *testing.T) {
	sys, _ := cubeSystem(t, 6, 2, 3)
	nodePt := sys.NodePart
	dofPt := sys.DOFPartition()
	if dofPt.N != 3*nodePt.N {
		t.Errorf("DOF partition size %d, want %d", dofPt.N, 3*nodePt.N)
	}
	for r := 0; r < nodePt.P; r++ {
		nlo, nhi := nodePt.Range(r)
		dlo, dhi := dofPt.Range(r)
		if dlo != 3*nlo || dhi != 3*nhi {
			t.Errorf("rank %d DOF range [%d,%d), want [%d,%d)", r, dlo, dhi, 3*nlo, 3*nhi)
		}
	}
}

func TestAssemblyCountersPopulated(t *testing.T) {
	sys, m := cubeSystem(t, 8, 2, 4)
	if sys.Assembly.TotalFlops() <= 0 {
		t.Error("no assembly flops recorded")
	}
	if sys.Assembly.Imbalance() < 1 {
		t.Errorf("imbalance = %v < 1", sys.Assembly.Imbalance())
	}
	// Per-rank accounting: one element stiffness per visited element,
	// 36 flops per owned node — what the cluster model replays.
	want, _ := AssemblyWorkModel(m, sys.NodePart)
	if !slices.Equal(sys.Assembly.Flops, want) {
		t.Errorf("per-rank flops %v, work model %v", sys.Assembly.Flops, want)
	}
}

func TestDisplacementFieldInterpolates(t *testing.T) {
	sys, m := cubeSystem(t, 8, 2, 1)
	// Synthetic linear nodal field; the rasterized field must match the
	// linear function at interior voxels.
	affine := func(p geom.Vec3) geom.Vec3 {
		return geom.V(0.1*p.X, -0.05*p.Y+0.02*p.Z, 0.03*p.X+0.01)
	}
	nodeU := make([]geom.Vec3, m.NumNodes())
	for n, p := range m.Nodes {
		nodeU[n] = affine(p)
	}
	g := volume.NewGrid(8, 8, 8, 1)
	f := sys.DisplacementField(nodeU, g)
	for k := 1; k < 6; k++ {
		for j := 1; j < 6; j++ {
			for i := 1; i < 6; i++ {
				p := g.World(i, j, k)
				got := f.At(i, j, k)
				want := affine(p)
				if got.Sub(want).MaxAbs() > 1e-5 {
					t.Fatalf("field at (%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}
