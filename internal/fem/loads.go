package fem

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/par"
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

// Strains computes the (constant) strain of every element from the
// nodal displacement field.
func (s *System) Strains(nodeU []geom.Vec3) ([]ElementStrain, error) {
	if len(nodeU) != s.Mesh.NumNodes() {
		return nil, fmt.Errorf("fem: %d displacements for %d nodes", len(nodeU), s.Mesh.NumNodes())
	}
	out := make([]ElementStrain, s.Mesh.NumTets())
	for e := range out {
		st, err := s.elementStrain(e, nodeU)
		if err != nil {
			return nil, err
		}
		out[e] = st
	}
	return out, nil
}

// elementStrain is the strain of element e.
func (s *System) elementStrain(e int, nodeU []geom.Vec3) (ElementStrain, error) {
	sc, err := s.Mesh.TetGeom(e).Shape()
	if err != nil {
		return ElementStrain{}, fmt.Errorf("fem: element %d: %w", e, err)
	}
	return s.strainOf(e, &sc, nodeU), nil
}

// strainOf is the strain of element e with shape functions sc.
func (s *System) strainOf(e int, sc *geom.ShapeCoeffs, nodeU []geom.Vec3) ElementStrain {
	m := s.Mesh
	var st ElementStrain
	for a := 0; a < 4; a++ {
		u := nodeU[m.Tets[e][a]]
		bx, by, bz := sc.B[a], sc.C[a], sc.D[a]
		st[0] += bx * u.X
		st[1] += by * u.Y
		st[2] += bz * u.Z
		st[3] += by*u.X + bx*u.Y
		st[4] += bz*u.Y + by*u.Z
		st[5] += bz*u.X + bx*u.Z
	}
	return st
}

// Stresses converts element strains to stresses through each element's
// constitutive matrix (sigma = D epsilon for isotropic linear
// elasticity).
func (s *System) Stresses(strains []ElementStrain, mats Table) ([]ElementStress, error) {
	if len(strains) != s.Mesh.NumTets() {
		return nil, fmt.Errorf("fem: %d strains for %d elements", len(strains), s.Mesh.NumTets())
	}
	out := make([]ElementStress, len(strains))
	for e, st := range strains {
		out[e] = st.stress(mats.For(s.Mesh.TetLabel[e]).Lame())
	}
	return out, nil
}

// stress is sigma = D epsilon for the Lamé parameters lambda and mu.
func (st ElementStrain) stress(lambda, mu float64) ElementStress {
	trace := st[0] + st[1] + st[2]
	return ElementStress{
		lambda*trace + 2*mu*st[0],
		lambda*trace + 2*mu*st[1],
		lambda*trace + 2*mu*st[2],
		mu * st[3],
		mu * st[4],
		mu * st[5],
	}
}

// VonMisesStresses computes every element's von Mises stress from the
// nodal displacement field in one pass over the elements, split into
// ranks contiguous ranges that run concurrently: element by element
// the Strains, Stresses, ElementStress.VonMises chain, and its bits,
// without the two intermediate slices, each rank taking the shape
// functions from its own shape memo (see memo.go).
func (s *System) VonMisesStresses(nodeU []geom.Vec3, mats Table, ranks int) ([]float64, error) {
	if len(nodeU) != s.Mesh.NumNodes() {
		return nil, fmt.Errorf("fem: %d displacements for %d nodes", len(nodeU), s.Mesh.NumNodes())
	}
	out := make([]float64, s.Mesh.NumTets())
	pt := par.Even(len(out), ranks)
	errs := make([]error, pt.P) // one slot per rank; the lowest rank's error is reported
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		memo := new(shapeMemo)
		for e := lo; e < hi; e++ {
			t := s.Mesh.TetGeom(e)
			sc, err := memo.shape(&t)
			if err != nil {
				errs[r] = fmt.Errorf("fem: element %d: %w", e, err)
				return
			}
			out[e] = s.strainOf(e, &sc, nodeU).stress(mats.For(s.Mesh.TetLabel[e]).Lame()).VonMises()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
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
