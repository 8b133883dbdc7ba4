package fem

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// AddBodyForce accumulates a constant body force density (N per unit
// volume, e.g. gravity * tissue density) over all elements whose label
// passes the filter (nil = all elements) into the system right-hand
// side. For a linear tetrahedral element the consistent load vector
// distributes a quarter of the element's total force to each node —
// the volume-force term of the paper's equation 1.
//
// Call before ApplyDirichlet, like all load assembly.
func (s *System) AddBodyForce(f geom.Vec3, filter func(e int) bool) error {
	if s.nConstrained > 0 {
		return fmt.Errorf("fem: loads must be assembled before ApplyDirichlet")
	}
	m := s.Mesh
	for e := range m.Tets {
		if filter != nil && !filter(e) {
			continue
		}
		vol := m.TetGeom(e).Volume()
		share := f.Scale(vol / 4)
		for _, node := range m.Tets[e] {
			s.F[3*int(node)+0] += share.X
			s.F[3*int(node)+1] += share.Y
			s.F[3*int(node)+2] += share.Z
		}
	}
	return nil
}

// AddNodalForce accumulates a concentrated force at a mesh node — the
// "forces concentrated at the nodes of the mesh" term of the paper's
// equation 1.
func (s *System) AddNodalForce(node int32, f geom.Vec3) error {
	if node < 0 || int(node) >= s.Mesh.NumNodes() {
		return fmt.Errorf("fem: node %d out of range", node)
	}
	if s.Constrained[3*int(node)] || s.Constrained[3*int(node)+1] || s.Constrained[3*int(node)+2] {
		return fmt.Errorf("fem: node %d is Dirichlet-constrained", node)
	}
	s.F[3*int(node)+0] += f.X
	s.F[3*int(node)+1] += f.Y
	s.F[3*int(node)+2] += f.Z
	return nil
}

// ElementStrain is the engineering strain vector of one element in the
// paper's ordering: (exx, eyy, ezz, gxy, gyz, gzx).
type ElementStrain [6]float64

// ElementStress is the corresponding stress vector.
type ElementStress [6]float64

// Strains computes the (constant) strain of every element of m from the
// nodal displacement field. With Stresses and ElementStress.VonMises it
// is an on-demand analysis of a solved deformation (a core.Result's
// Mesh and NodeDisplacements), not part of a scan.
func Strains(m *mesh.Mesh, nodeU []geom.Vec3) ([]ElementStrain, error) {
	if len(nodeU) != m.NumNodes() {
		return nil, fmt.Errorf("fem: %d displacements for %d nodes", len(nodeU), m.NumNodes())
	}
	out := make([]ElementStrain, m.NumTets())
	for e := range out {
		sc, err := m.TetGeom(e).Shape()
		if err != nil {
			return nil, fmt.Errorf("fem: element %d: %w", e, err)
		}
		for a := 0; a < 4; a++ {
			u := nodeU[m.Tets[e][a]]
			bx, by, bz := sc.B[a], sc.C[a], sc.D[a]
			out[e][0] += bx * u.X
			out[e][1] += by * u.Y
			out[e][2] += bz * u.Z
			out[e][3] += by*u.X + bx*u.Y
			out[e][4] += bz*u.Y + by*u.Z
			out[e][5] += bz*u.X + bx*u.Z
		}
	}
	return out, nil
}

// Stresses converts the element strains of m to stresses through each
// element's constitutive matrix (sigma = D epsilon for isotropic linear
// elasticity).
func Stresses(m *mesh.Mesh, strains []ElementStrain, mats Table) ([]ElementStress, error) {
	if len(strains) != m.NumTets() {
		return nil, fmt.Errorf("fem: %d strains for %d elements", len(strains), m.NumTets())
	}
	out := make([]ElementStress, len(strains))
	for e, st := range strains {
		lambda, mu := mats.For(m.TetLabel[e]).Lame()
		trace := st[0] + st[1] + st[2]
		out[e] = ElementStress{
			lambda*trace + 2*mu*st[0],
			lambda*trace + 2*mu*st[1],
			lambda*trace + 2*mu*st[2],
			mu * st[3],
			mu * st[4],
			mu * st[5],
		}
	}
	return out, nil
}

// VonMises returns the von Mises equivalent stress of an element stress
// state — the scalar the reproduction uses for quantitative monitoring
// of tissue loading.
func (st ElementStress) VonMises() float64 {
	sx, sy, sz := st[0], st[1], st[2]
	txy, tyz, tzx := st[3], st[4], st[5]
	d := (sx-sy)*(sx-sy) + (sy-sz)*(sy-sz) + (sz-sx)*(sz-sx) +
		6*(txy*txy+tyz*tyz+tzx*tzx)
	return sqrtHalf(d)
}

func sqrtHalf(d float64) float64 {
	if d <= 0 {
		return 0
	}
	return math.Sqrt(d / 2)
}
