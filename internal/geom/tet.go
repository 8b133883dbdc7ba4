package geom

import (
	"fmt"
	"math"
)

// Tet is a tetrahedron given by its four vertices. Vertex ordering
// determines orientation: a positively oriented tetrahedron has positive
// signed volume.
type Tet struct {
	P [4]Vec3
}

// SignedVolume returns the signed volume of t. Positive when the vertex
// ordering is positively oriented (right-handed).
func (t Tet) SignedVolume() float64 {
	a := t.P[1].Sub(t.P[0])
	b := t.P[2].Sub(t.P[0])
	c := t.P[3].Sub(t.P[0])
	return a.Cross(b).Dot(c) / 6
}

// Volume returns the absolute volume of t.
func (t Tet) Volume() float64 { return math.Abs(t.SignedVolume()) }

// Centroid returns the barycenter of t.
func (t Tet) Centroid() Vec3 {
	return t.P[0].Add(t.P[1]).Add(t.P[2]).Add(t.P[3]).Scale(0.25)
}

// ShapeCoeffs holds the coefficients of the four linear shape functions
// of a tetrahedral element: N_i(x,y,z) = (A[i] + B[i]x + C[i]y + D[i]z).
// The coefficients already include the 1/(6V) normalization, so that
// sum_i N_i = 1 everywhere and N_i(P_j) = delta_ij.
//
// The spatial gradients of the shape functions, grad N_i = (B[i], C[i],
// D[i]), are the quantities entering the finite element strain matrix
// (Zienkiewicz & Taylor, ch. 6).
type ShapeCoeffs struct {
	A, B, C, D [4]float64
	Vol6       float64 // 6 * signed volume
}

// oppositeFace lists, for each vertex, the three vertices of the face
// opposite it (the outward winding of a positively oriented element).
var oppositeFace = [4][3]int{{1, 2, 3}, {0, 3, 2}, {0, 1, 3}, {0, 2, 1}}

// Shape computes the linear shape function coefficients of t. It returns
// an error for degenerate (near zero volume) tetrahedra.
//
// N_i vanishes on the face (j, k, l) opposite node i, so its gradient is
// that face's normal n = (P_k-P_j) x (P_l-P_j) scaled to N_i(P_i) = 1:
// grad N_i = n / (n . (P_i-P_j)), the divisor being +-6V whatever the
// vertex order, and A[i] = -grad N_i . P_j puts the zero on the face.
//
//lint:hotpath
//lint:noescape
func (t Tet) Shape() (ShapeCoeffs, error) {
	sc := ShapeCoeffs{Vol6: t.SignedVolume() * 6}
	minDiv := math.Abs(sc.Vol6)
	for i, f := range oppositeFace {
		pj := t.P[f[0]]
		n := t.P[f[1]].Sub(pj).Cross(t.P[f[2]].Sub(pj))
		d := n.Dot(t.P[i].Sub(pj))
		if a := math.Abs(d); a < minDiv {
			minDiv = a
		}
		b, c, dz := n.X/d, n.Y/d, n.Z/d
		sc.A[i], sc.B[i], sc.C[i], sc.D[i] = -(b*pj.X + c*pj.Y + dz*pj.Z), b, c, dz
	}
	if minDiv < 1e-300 {
		return ShapeCoeffs{}, degenerateTet(sc.Vol6)
	}
	return sc, nil
}

// degenerateTet builds Shape's error. Not inlined: the formatted operand
// is boxed, and the kernel's contract allows no heap escape inside it.
//
//go:noinline
func degenerateTet(v6 float64) error {
	return fmt.Errorf("geom: degenerate tetrahedron (6V=%g)", v6)
}

// Eval returns the value of shape function i at point p.
func (sc ShapeCoeffs) Eval(i int, p Vec3) float64 {
	return sc.A[i] + sc.B[i]*p.X + sc.C[i]*p.Y + sc.D[i]*p.Z
}

// AspectQuality returns a scale-invariant quality measure in (0, 1]:
// the ratio of the inscribed-sphere radius to the circumscribing measure
// longest-edge/ (2*sqrt(6)), which is 1 for a regular tetrahedron and
// approaches 0 for slivers.
func (t Tet) AspectQuality() float64 {
	vol := t.Volume()
	if vol <= 0 {
		return 0
	}
	// Surface area of the four faces.
	area := 0.0
	for _, f := range oppositeFace {
		a := t.P[f[1]].Sub(t.P[f[0]])
		b := t.P[f[2]].Sub(t.P[f[0]])
		area += a.Cross(b).Norm() / 2
	}
	inradius := 3 * vol / area
	// Longest edge.
	longest := 0.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if d := t.P[i].Dist(t.P[j]); d > longest {
				longest = d
			}
		}
	}
	if longest == 0 {
		return 0
	}
	// Normalize so a regular tetrahedron scores 1.
	// For a regular tet with edge L: inradius = L / (2 sqrt(6)).
	return inradius * 2 * math.Sqrt(6) / longest
}
