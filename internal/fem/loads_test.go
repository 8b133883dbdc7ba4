package fem

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/solver"
	"repro/internal/volume"
)

func TestAddBodyForceConservesTotal(t *testing.T) {
	sys, m := cubeSystem(t, 6, 2, 1)
	force := geom.V(0, 0, -9.81)
	if err := sys.AddBodyForce(force, nil); err != nil {
		t.Fatal(err)
	}
	// Sum of nodal z-forces equals force.Z * total volume.
	total := 0.0
	for n := 0; n < m.NumNodes(); n++ {
		total += sys.F[3*n+2]
	}
	want := force.Z * m.TotalVolume()
	if math.Abs(total-want) > 1e-9*math.Abs(want) {
		t.Errorf("total z-force = %v, want %v", total, want)
	}
	// x and y components remain zero.
	for n := 0; n < m.NumNodes(); n++ {
		if sys.F[3*n] != 0 || sys.F[3*n+1] != 0 {
			t.Fatal("unexpected lateral force components")
		}
	}
}

func TestAddBodyForceFilter(t *testing.T) {
	sys, m := cubeSystem(t, 6, 2, 1)
	if err := sys.AddBodyForce(geom.V(0, 0, -1), func(e int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	for i := range sys.F {
		if sys.F[i] != 0 {
			t.Fatal("filtered-out elements contributed force")
		}
	}
	_ = m
}

func TestAddBodyForceAfterBCFails(t *testing.T) {
	sys, _ := cubeSystem(t, 4, 2, 1)
	if err := sys.ApplyDirichlet(map[int32]geom.Vec3{0: {}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddBodyForce(geom.V(0, 0, -1), nil); err == nil {
		t.Error("body force after Dirichlet accepted")
	}
}

func TestAddNodalForce(t *testing.T) {
	sys, _ := cubeSystem(t, 4, 2, 1)
	if err := sys.AddNodalForce(1, geom.V(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if sys.F[3] != 1 || sys.F[4] != 2 || sys.F[5] != 3 {
		t.Errorf("nodal force not applied: %v", sys.F[3:6])
	}
	if err := sys.AddNodalForce(99999, geom.V(1, 0, 0)); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestGravitySagUnderLoad(t *testing.T) {
	// A cube clamped on its bottom face, loaded by downward gravity:
	// every free node sinks, and the top sinks the most.
	g := volume.NewGrid(8, 8, 8, 1)
	l := volume.NewLabels(g)
	for i := range l.Data {
		l.Data[i] = volume.LabelBrain
	}
	sys, m := cubeSystem(t, 8, 2, 2)
	_ = l
	if err := sys.AddBodyForce(geom.V(0, 0, -50), nil); err != nil {
		t.Fatal(err)
	}
	bc := map[int32]geom.Vec3{}
	minZ := math.Inf(1)
	for _, p := range m.Nodes {
		if p.Z < minZ {
			minZ = p.Z
		}
	}
	for n, p := range m.Nodes {
		if p.Z == minZ {
			bc[int32(n)] = geom.Vec3{}
		}
	}
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	res, err := sys.SolveContext(context.Background(), solver.Options{Tol: 1e-8, MaxIter: 3000, Restart: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %v", res.Stats)
	}
	// Displacement decreases (more negative) with height.
	maxZ := 0.0
	for _, p := range m.Nodes {
		if p.Z > maxZ {
			maxZ = p.Z
		}
	}
	var topSag, midSag float64
	for n, p := range m.Nodes {
		if p.Z == maxZ && topSag > res.NodeU[n].Z {
			topSag = res.NodeU[n].Z
		}
		if math.Abs(p.Z-maxZ/2) < 1.1 && midSag > res.NodeU[n].Z {
			midSag = res.NodeU[n].Z
		}
	}
	if topSag >= 0 {
		t.Errorf("top did not sag: %v", topSag)
	}
	if topSag >= midSag {
		t.Errorf("top sag (%v) not larger than mid sag (%v)", topSag, midSag)
	}
}

func TestStrainsOfLinearField(t *testing.T) {
	_, m := cubeSystem(t, 6, 2, 1)
	// u = (a x, b y, c z) has strain (a, b, c, 0, 0, 0) everywhere.
	a, b, c := 0.01, -0.02, 0.005
	nodeU := make([]geom.Vec3, m.NumNodes())
	for n, p := range m.Nodes {
		nodeU[n] = geom.V(a*p.X, b*p.Y, c*p.Z)
	}
	strains, err := Strains(m, nodeU)
	if err != nil {
		t.Fatal(err)
	}
	for e, st := range strains {
		want := ElementStrain{a, b, c, 0, 0, 0}
		for i := 0; i < 6; i++ {
			if math.Abs(st[i]-want[i]) > 1e-10 {
				t.Fatalf("element %d strain[%d] = %v, want %v", e, i, st[i], want[i])
			}
		}
	}
}

func TestStrainsShearField(t *testing.T) {
	_, m := cubeSystem(t, 6, 2, 1)
	// u = (k y, 0, 0) is simple shear: gxy = k, all else 0.
	k := 0.04
	nodeU := make([]geom.Vec3, m.NumNodes())
	for n, p := range m.Nodes {
		nodeU[n] = geom.V(k*p.Y, 0, 0)
	}
	strains, err := Strains(m, nodeU)
	if err != nil {
		t.Fatal(err)
	}
	for e, st := range strains {
		if math.Abs(st[3]-k) > 1e-10 {
			t.Fatalf("element %d gxy = %v, want %v", e, st[3], k)
		}
		for _, i := range []int{0, 1, 2, 4, 5} {
			if math.Abs(st[i]) > 1e-10 {
				t.Fatalf("element %d strain[%d] = %v, want 0", e, i, st[i])
			}
		}
	}
}

func TestStressesHydrostatic(t *testing.T) {
	_, m := cubeSystem(t, 4, 2, 1)
	// Uniform dilation: strain (e,e,e,0,0,0) gives hydrostatic stress
	// (3 lambda + 2 mu) e on the diagonal and zero shear; von Mises 0.
	e := 0.01
	nodeU := make([]geom.Vec3, m.NumNodes())
	for n, p := range m.Nodes {
		nodeU[n] = p.Scale(e)
	}
	strains, err := Strains(m, nodeU)
	if err != nil {
		t.Fatal(err)
	}
	mats := HomogeneousBrain()
	stresses, err := Stresses(m, strains, mats)
	if err != nil {
		t.Fatal(err)
	}
	lambda, mu := mats.Default.Lame()
	want := (3*lambda + 2*mu) * e
	for el, st := range stresses {
		for i := 0; i < 3; i++ {
			if math.Abs(st[i]-want) > 1e-8*want {
				t.Fatalf("element %d sigma[%d] = %v, want %v", el, i, st[i], want)
			}
		}
		if vm := st.VonMises(); vm > 1e-8*want {
			t.Fatalf("hydrostatic von Mises = %v, want 0", vm)
		}
	}
}

func TestVonMisesUniaxial(t *testing.T) {
	// Pure uniaxial stress sigma: von Mises equals sigma.
	st := ElementStress{100, 0, 0, 0, 0, 0}
	if vm := st.VonMises(); math.Abs(vm-100) > 1e-12 {
		t.Errorf("uniaxial von Mises = %v, want 100", vm)
	}
	// Pure shear tau: von Mises = sqrt(3) tau.
	sh := ElementStress{0, 0, 0, 50, 0, 0}
	if vm := sh.VonMises(); math.Abs(vm-50*math.Sqrt(3)) > 1e-9 {
		t.Errorf("shear von Mises = %v, want %v", vm, 50*math.Sqrt(3))
	}
}

func TestStrainsErrors(t *testing.T) {
	_, m := cubeSystem(t, 4, 2, 1)
	if _, err := Strains(m, make([]geom.Vec3, 3)); err == nil {
		t.Error("wrong displacement count accepted")
	}
	if _, err := Stresses(m, make([]ElementStrain, 1), HomogeneousBrain()); err == nil {
		t.Error("wrong strain count accepted")
	}
}
