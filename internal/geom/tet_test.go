package geom

import (
	"math"
	"math/rand"
	"testing"
)

// unitTet is the reference tetrahedron with vertices at the origin and
// the three unit axis points; volume 1/6.
func unitTet() Tet {
	return Tet{P: [4]Vec3{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)}}
}

func TestTetVolume(t *testing.T) {
	tet := unitTet()
	if got := tet.SignedVolume(); !almostEq(got, 1.0/6, 1e-15) {
		t.Errorf("SignedVolume = %v, want 1/6", got)
	}
	// Swapping two vertices flips orientation.
	tet.P[0], tet.P[1] = tet.P[1], tet.P[0]
	if got := tet.SignedVolume(); !almostEq(got, -1.0/6, 1e-15) {
		t.Errorf("flipped SignedVolume = %v, want -1/6", got)
	}
	if got := tet.Volume(); !almostEq(got, 1.0/6, 1e-15) {
		t.Errorf("Volume = %v, want 1/6", got)
	}
}

func TestTetCentroid(t *testing.T) {
	c := unitTet().Centroid()
	if !vecAlmostEq(c, V(0.25, 0.25, 0.25), 1e-15) {
		t.Errorf("Centroid = %v", c)
	}
}

func randomTet(rng *rand.Rand) Tet {
	for {
		var tet Tet
		for i := 0; i < 4; i++ {
			tet.P[i] = randVec(rng, 5)
		}
		if tet.Volume() > 0.05 {
			return tet
		}
	}
}

func TestShapeKroneckerDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		tet := randomTet(rng)
		sc, err := tet.Shape()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := 0.0
				if i == j {
					want = 1.0
				}
				if got := sc.Eval(i, tet.P[j]); !almostEq(got, want, 1e-8) {
					t.Fatalf("N_%d(P_%d) = %v, want %v", i, j, got, want)
				}
			}
		}
	}
}

func TestShapePartitionOfUnity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		tet := randomTet(rng)
		sc, err := tet.Shape()
		if err != nil {
			t.Fatal(err)
		}
		// Shape functions sum to 1 at arbitrary points, and gradients sum
		// to zero.
		p := randVec(rng, 5)
		sum := 0.0
		var gb, gc, gd float64
		for i := 0; i < 4; i++ {
			sum += sc.Eval(i, p)
			gb += sc.B[i]
			gc += sc.C[i]
			gd += sc.D[i]
		}
		if !almostEq(sum, 1, 1e-8) {
			t.Fatalf("sum N_i = %v, want 1", sum)
		}
		if math.Abs(gb)+math.Abs(gc)+math.Abs(gd) > 1e-8 {
			t.Fatalf("gradients do not sum to zero: %v %v %v", gb, gc, gd)
		}
	}
}

func TestShapeDegenerate(t *testing.T) {
	flat := Tet{P: [4]Vec3{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(1, 1, 0)}}
	if _, err := flat.Shape(); err == nil {
		t.Error("expected error for flat tetrahedron")
	}
}

func TestAspectQuality(t *testing.T) {
	// Regular tetrahedron scores ~1.
	reg := Tet{P: [4]Vec3{
		V(1, 1, 1), V(1, -1, -1), V(-1, 1, -1), V(-1, -1, 1),
	}}
	if q := reg.AspectQuality(); !almostEq(q, 1, 1e-9) {
		t.Errorf("regular tet quality = %v, want 1", q)
	}
	// A sliver scores much lower.
	sliver := Tet{P: [4]Vec3{
		V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0.5, 0.5, 0.01),
	}}
	if q := sliver.AspectQuality(); q > 0.2 {
		t.Errorf("sliver quality = %v, want < 0.2", q)
	}
	// Degenerate tet scores 0.
	flat := Tet{P: [4]Vec3{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(1, 1, 0)}}
	if q := flat.AspectQuality(); q != 0 {
		t.Errorf("flat tet quality = %v, want 0", q)
	}
}

func TestInterpolationReproducesLinearField(t *testing.T) {
	// A linear field f(p) = 2x - 3y + z + 5 must be reproduced exactly by
	// linear shape function interpolation from nodal values.
	rng := rand.New(rand.NewSource(9))
	f := func(p Vec3) float64 { return 2*p.X - 3*p.Y + p.Z + 5 }
	for trial := 0; trial < 50; trial++ {
		tet := randomTet(rng)
		sc, err := tet.Shape()
		if err != nil {
			t.Fatal(err)
		}
		p := tet.Centroid().Add(randVec(rng, 0.3))
		got := 0.0
		for i := 0; i < 4; i++ {
			got += sc.Eval(i, p) * f(tet.P[i])
		}
		if !almostEq(got, f(p), 1e-7) {
			t.Fatalf("interpolated %v, want %v", got, f(p))
		}
	}
}
