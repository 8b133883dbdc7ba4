package transform

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

func TestIdentityTransform(t *testing.T) {
	r := Identity(geom.V(10, 10, 10))
	p := geom.V(3, -2, 7)
	if got := r.Apply(p); got.Sub(p).MaxAbs() > 1e-12 {
		t.Errorf("identity moved point: %v", got)
	}
}

func TestParamsRoundTrip(t *testing.T) {
	r := Rigid{RX: 0.1, RY: -0.2, RZ: 0.3, TX: 1, TY: 2, TZ: 3}
	p := r.Params()
	r2 := Identity(geom.Vec3{}).WithParams(p)
	if r2.RX != 0.1 || r2.TZ != 3 {
		t.Errorf("WithParams mismatch: %+v", r2)
	}
}

func TestWithParamsPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Identity(geom.Vec3{}).WithParams([]float64{1, 2, 3})
}

func TestMatrixMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		r := Rigid{
			RX: rng.NormFloat64() * 0.3, RY: rng.NormFloat64() * 0.3, RZ: rng.NormFloat64() * 0.3,
			TX: rng.NormFloat64() * 10, TY: rng.NormFloat64() * 10, TZ: rng.NormFloat64() * 10,
			Center: geom.V(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50),
		}
		p := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		a := r.Apply(p)
		b := r.Matrix().Apply(p)
		if a.Sub(b).MaxAbs() > 1e-9 {
			t.Fatalf("Matrix/Apply mismatch: %v vs %v", a, b)
		}
	}
}

func TestApplyPreservesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := Rigid{RX: 0.4, RY: -0.1, RZ: 0.25, TX: 5, TY: -3, TZ: 2, Center: geom.V(20, 20, 20)}
	for trial := 0; trial < 100; trial++ {
		p := geom.V(rng.Float64()*40, rng.Float64()*40, rng.Float64()*40)
		q := geom.V(rng.Float64()*40, rng.Float64()*40, rng.Float64()*40)
		if math.Abs(r.Apply(p).Dist(r.Apply(q))-p.Dist(q)) > 1e-9 {
			t.Fatal("rigid transform did not preserve distance")
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := Rigid{RX: 0.2, RY: 0.1, RZ: -0.3, TX: 4, TY: 1, TZ: -2, Center: geom.V(10, 10, 10)}
	inv := r.Inverse()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		p := geom.V(rng.Float64()*30, rng.Float64()*30, rng.Float64()*30)
		back := inv.Apply(r.Apply(p))
		if back.Sub(p).MaxAbs() > 1e-9 {
			t.Fatalf("inverse round trip failed: %v -> %v", p, back)
		}
	}
}

func TestCenterInvariantUnderPureRotation(t *testing.T) {
	c := geom.V(12, 8, 5)
	r := Rigid{RX: 0.5, RY: 0.7, RZ: -0.2, Center: c}
	if got := r.Apply(c); got.Sub(c).MaxAbs() > 1e-12 {
		t.Errorf("rotation center moved: %v", got)
	}
}

// translationGrids are the grids the pure-translation tests run on: the
// 1 mm grid at the origin, where a voxel index happens to be a
// millimetre coordinate, and a clinical one where it is not.
func translationGrids(nx, ny, nz int) []volume.Grid {
	return []volume.Grid{
		volume.NewGrid(nx, ny, nz, 1),
		{NX: nx, NY: ny, NZ: nz, Spacing: geom.V(0.9, 1.1, 2.5), Origin: geom.V(-40, 12, 7)},
	}
}

func TestResampleScalarPureTranslation(t *testing.T) {
	for _, g := range translationGrids(12, 6, 6) {
		src := volume.NewScalar(g)
		src.Set(4, 3, 3, 50)
		// Move content +2 voxels in x.
		r := Rigid{TX: 2 * g.Spacing.X, Center: g.Center()}
		out := ResampleScalar(src, r, g)
		if got := out.At(6, 3, 3); math.Abs(got-50) > 1e-4 {
			t.Errorf("%v: translated value = %v, want 50 at (6,3,3)", g, got)
		}
		if got := out.At(4, 3, 3); got > 1 {
			t.Errorf("%v: original position should be (near) empty, got %v", g, got)
		}
	}
}

func TestResampleLabelsPureTranslation(t *testing.T) {
	for _, g := range translationGrids(10, 5, 5) {
		src := volume.NewLabels(g)
		src.Set(2, 2, 2, volume.LabelTumor)
		r := Rigid{TX: 3 * g.Spacing.X, Center: g.Center()}
		out := ResampleLabels(src, r, g)
		if out.At(5, 2, 2) != volume.LabelTumor {
			t.Errorf("%v: label did not translate", g)
		}
	}
}

func TestMaxDisplacement(t *testing.T) {
	g := volume.NewGrid(11, 11, 11, 1)
	r := Rigid{TX: 3, TY: 4, Center: g.Center()}
	// Pure translation displaces every point by exactly 5.
	if got := r.MaxDisplacement(g); math.Abs(got-5) > 1e-9 {
		t.Errorf("MaxDisplacement = %v, want 5", got)
	}
	// Rotation displaces corners more than center.
	rot := Rigid{RZ: 0.1, Center: g.Center()}
	if got := rot.MaxDisplacement(g); got <= 0 {
		t.Errorf("rotation MaxDisplacement = %v, want > 0", got)
	}
	// On a clinical grid the corners are in millimetres, not indices: a
	// rotation about z by theta moves a corner at distance rho from the
	// axis by 2 rho sin(theta/2).
	aniso := volume.Grid{NX: 21, NY: 11, NZ: 5, Spacing: geom.V(0.9, 1.1, 2.5), Origin: geom.V(-40, 12, 7)}
	rot.Center = aniso.Center()
	rho := math.Hypot(10*0.9, 5*1.1)
	if got, want := rot.MaxDisplacement(aniso), 2*rho*math.Sin(0.05); math.Abs(got-want) > 1e-9 {
		t.Errorf("anisotropic MaxDisplacement = %v, want %v", got, want)
	}
}
