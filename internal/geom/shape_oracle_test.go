package geom_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/volume"
)

// shapeGaussJordan is the implementation Tet.Shape replaced, kept as its
// oracle: the coefficients of node i are the i-th column of M^-1, M
// having rows [1, x_j, y_j, z_j], by pivoted Gauss-Jordan.
func shapeGaussJordan(t geom.Tet) (geom.ShapeCoeffs, error) {
	var sc geom.ShapeCoeffs
	v6 := t.SignedVolume() * 6
	if math.Abs(v6) < 1e-300 {
		return sc, fmt.Errorf("geom: degenerate tetrahedron (6V=%g)", v6)
	}
	sc.Vol6 = v6
	var m geom.Mat4
	for j := 0; j < 4; j++ {
		m[4*j+0] = 1
		m[4*j+1] = t.P[j].X
		m[4*j+2] = t.P[j].Y
		m[4*j+3] = t.P[j].Z
	}
	inv, err := m.Inverse()
	if err != nil {
		return sc, fmt.Errorf("geom: degenerate tetrahedron: %w", err)
	}
	for i := 0; i < 4; i++ {
		sc.A[i] = inv.At(0, i)
		sc.B[i] = inv.At(1, i)
		sc.C[i] = inv.At(2, i)
		sc.D[i] = inv.At(3, i)
	}
	return sc, nil
}

// coeffs flattens a ShapeCoeffs for comparison.
func coeffs(sc geom.ShapeCoeffs) []float64 {
	out := []float64{sc.Vol6}
	for i := 0; i < 4; i++ {
		out = append(out, sc.A[i], sc.B[i], sc.C[i], sc.D[i])
	}
	return out
}

// ballLabels labels a ball of brain in an n^3 grid of the given geometry.
func ballLabels(n int, spacing, origin geom.Vec3) *volume.Labels {
	g := volume.Grid{NX: n, NY: n, NZ: n, Spacing: spacing, Origin: origin}
	l := volume.NewLabels(g)
	c := float64(n-1) / 2
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if d := geom.V(float64(i)-c, float64(j)-c, float64(k)-c); d.Norm() <= 0.4*float64(n) {
					l.Set(i, j, k, volume.LabelBrain)
				}
			}
		}
	}
	return l
}

// flipped reverses the orientation of t by exchanging two vertices.
func flipped(t geom.Tet) geom.Tet {
	t.P[2], t.P[3] = t.P[3], t.P[2]
	return t
}

// TestShapeExactOnLatticeTets: on the Kuhn and BCC lattices of a grid
// with power-of-two spacing the closed form and the elimination are both
// exact, so they return the same numbers — which is why no pinned
// pipeline digest moved when Shape changed. (A zero coefficient may
// carry either sign; == takes them for equal, as every sum downstream
// does.)
func TestShapeExactOnLatticeTets(t *testing.T) {
	grids := []struct{ spacing, origin geom.Vec3 }{
		{geom.V(1, 1, 1), geom.V(0, 0, 0)},
		{geom.V(0.5, 1, 2), geom.V(-8, 4, 16.5)},
	}
	meshers := map[string]func(*volume.Labels, mesh.Options) (*mesh.Mesh, error){
		"kuhn": mesh.FromLabels, "bcc": mesh.FromLabelsBCC,
	}
	for _, g := range grids {
		for name, mesher := range meshers {
			for _, cs := range []int{1, 2} {
				m, err := mesher(ballLabels(12, g.spacing, g.origin), mesh.Options{CellSize: cs})
				if err != nil {
					t.Fatal(err)
				}
				for e := range m.Tets {
					for _, tet := range []geom.Tet{m.TetGeom(e), flipped(m.TetGeom(e))} {
						got, err1 := tet.Shape()
						want, err2 := shapeGaussJordan(tet)
						if err1 != nil || err2 != nil {
							t.Fatalf("%s cs=%d tet %d: %v / %v", name, cs, e, err1, err2)
						}
						g, w := coeffs(got), coeffs(want)
						for i := range g {
							if g[i] != w[i] {
								t.Fatalf("%s cs=%d tet %d %v coefficient %d: closed form %v (%#x), Gauss-Jordan %v (%#x)",
									name, cs, e, tet.P, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
							}
						}
					}
				}
			}
		}
	}
}

// checkShapeAgainstOracle requires Shape to agree with the elimination
// to tol relative to the largest coefficient, and to satisfy
// N_i(P_j) = delta_ij and sum_i N_i = 1 at the vertices to tol times the
// size of the terms Eval adds up.
func checkShapeAgainstOracle(t *testing.T, name string, tets []geom.Tet, tol float64) {
	t.Helper()
	for n, tet := range tets {
		got, err := tet.Shape()
		want, err2 := shapeGaussJordan(tet)
		if err != nil || err2 != nil {
			t.Fatalf("%s tet %d: %v / %v", name, n, err, err2)
		}
		g, w := coeffs(got), coeffs(want)
		scale := 0.0
		for _, v := range w[1:] {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range g {
			if d := math.Abs(g[i] - w[i]); d > tol*scale {
				t.Fatalf("%s tet %d coefficient %d: closed form %v, Gauss-Jordan %v (relative %g > %g)",
					name, n, i, g[i], w[i], d/scale, tol)
			}
		}
		for j, p := range tet.P {
			sum := 0.0
			for i := 0; i < 4; i++ {
				v, want := got.Eval(i, p), 0.0
				if i == j {
					want = 1
				}
				if d := math.Abs(v - want); d > tol*scale {
					t.Fatalf("%s tet %d: N_%d(P_%d) = %v, want %v", name, n, i, j, v, want)
				}
				sum += v
			}
			if d := math.Abs(sum - 1); d > tol*scale {
				t.Fatalf("%s tet %d: shape functions sum to %v at P_%d", name, n, sum, j)
			}
		}
	}
}

func TestShapeMatchesGaussJordan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var random, sliver []geom.Tet
	for len(random) < 2000 {
		var tet geom.Tet
		for i := range tet.P {
			tet.P[i] = geom.V(100+20*rng.Float64(), -50+20*rng.Float64(), 20*rng.Float64())
		}
		if tet.Volume() > 1 {
			random = append(random, tet, flipped(tet))
		}
	}
	// Slivers: the fourth vertex dropped to 1e-6 of its height over the
	// opposite face. Conditioning grows as the inverse of the thinness,
	// and so does the distance between any two ways of rounding.
	const thin = 1e-6
	for _, tet := range random {
		n := tet.P[1].Sub(tet.P[0]).Cross(tet.P[2].Sub(tet.P[0])).Normalized()
		h := tet.P[3].Sub(tet.P[0]).Dot(n)
		tet.P[3] = tet.P[3].Sub(n.Scale(h * (1 - thin)))
		sliver = append(sliver, tet)
	}
	// A BCC lattice on a grid whose spacing and origin are off powers of
	// two: almost every element a shape of its own.
	l := ballLabels(24, geom.V(0.9, 1.1, 1.3), geom.V(-31.37, 7.21, 120.3))
	m, err := mesh.FromLabelsBCC(l, mesh.Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	var offGrid []geom.Tet
	for e := range m.Tets {
		offGrid = append(offGrid, m.TetGeom(e))
	}
	checkShapeAgainstOracle(t, "random", random, 1e-12)
	checkShapeAgainstOracle(t, "off-grid bcc", offGrid, 1e-12)
	checkShapeAgainstOracle(t, "sliver", sliver, 1e-12/thin)
}

func TestShapeFlatTetSameError(t *testing.T) {
	flat := geom.Tet{P: [4]geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(1, 1, 0)}}
	_, got := flat.Shape()
	_, want := shapeGaussJordan(flat)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Errorf("flat tet: closed form %v, Gauss-Jordan %v", got, want)
	}
}

var sinkShape geom.ShapeCoeffs

func BenchmarkTetShape(b *testing.B) {
	tet := geom.Tet{P: [4]geom.Vec3{geom.V(5, 4, 1), geom.V(6, 4, 1), geom.V(6, 5, 1), geom.V(6, 5, 2)}}
	for i := 0; i < b.N; i++ {
		sinkShape, _ = tet.Shape()
	}
}
