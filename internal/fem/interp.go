package fem

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/volume"
)

// InterpTable caches the voxel→element interpolation of a mesh onto a
// grid: for every voxel inside the mesh, the four node indices of its
// containing element and their barycentric shape weights. The table is
// a pure function of the mesh geometry and the grid, so a session can
// build it once and rasterize every subsequent displacement solution
// with a dense gather instead of re-locating each voxel — the
// incremental-update analogue of the operator's kept factors, for the
// paper's resampling step. Apply gathers four nodes and weights per
// covered voxel (see checkShape).
type InterpTable struct {
	grid volume.Grid
	// vox is the linear voxel index of each covered voxel, once, in the
	// order element rasterization first reaches it.
	vox []int32
	// nodes and w hold four node indices and four weights per entry:
	// those of the last element that covers the voxel, the one whose
	// value DisplacementField leaves there.
	nodes []int32
	w     []float64
}

// checkShape validates the four-entries-per-voxel invariant Apply's
// gather loop indexes by.
func (t *InterpTable) checkShape() {
	if len(t.nodes) != 4*len(t.vox) || len(t.w) != 4*len(t.vox) {
		panic("fem: inconsistent InterpTable shape: nodes/weights are not 4 per covered voxel")
	}
}

// rasterize visits every (voxel, element) pair where the voxel center
// lies inside the element, calling fn with the voxel coordinates, the
// element's node indices and the barycentric shape weights. It is the
// shared coverage loop of DisplacementField and BuildInterpTable:
// iterating voxels-in-element is far cheaper than point-locating every
// voxel in an unstructured mesh. The shape functions come from a shape
// memo (see memo.go), bit for bit those of Tet.Shape.
func rasterize(m *mesh.Mesh, g volume.Grid, fn func(i, j, k int, nodes [4]int32, w [4]float64)) {
	memo := new(shapeMemo)
	for e := range m.Tets {
		t := m.TetGeom(e)
		sc, err := memo.shape(&t)
		if err != nil {
			continue // degenerate element contributes nothing
		}
		// Voxel bounding box of the element.
		lo := t.P[0]
		hi := t.P[0]
		for _, p := range t.P[1:] {
			if p.X < lo.X {
				lo.X = p.X
			}
			if p.Y < lo.Y {
				lo.Y = p.Y
			}
			if p.Z < lo.Z {
				lo.Z = p.Z
			}
			if p.X > hi.X {
				hi.X = p.X
			}
			if p.Y > hi.Y {
				hi.Y = p.Y
			}
			if p.Z > hi.Z {
				hi.Z = p.Z
			}
		}
		// Candidates: the voxels whose centre lies in the padded box. None
		// that the test below accepts is left out: a centre with all four
		// weights >= -1e-9 is a near-convex combination of the corners, so
		// it leaves the box by at most 3e-9 of its extent per axis plus
		// rounding, and the pad is three hundred times that.
		vlo, vhi := g.Voxel(lo), g.Voxel(hi)
		i0, i1 := tightRange(vlo.X, vhi.X)
		j0, j1 := tightRange(vlo.Y, vhi.Y)
		k0, k1 := tightRange(vlo.Z, vhi.Z)
		nodes := m.Tets[e]
		for k := max(k0, 0); k <= min(k1, g.NZ-1); k++ {
			for j := max(j0, 0); j <= min(j1, g.NY-1); j++ {
				for i := max(i0, 0); i <= min(i1, g.NX-1); i++ {
					p := g.World(i, j, k)
					// Barycentric test with a small tolerance so shared
					// faces are covered by at least one element. The
					// weight is ShapeCoeffs.Eval's expression, spelled out:
					// Eval's value receiver copies sc per call.
					var w [4]float64
					inside := true
					for a := 0; a < 4; a++ {
						w[a] = sc.A[a] + sc.B[a]*p.X + sc.C[a]*p.Y + sc.D[a]*p.Z
						if w[a] < -1e-9 {
							inside = false
							break
						}
					}
					if !inside {
						continue
					}
					fn(i, j, k, nodes, w)
				}
			}
		}
	}
}

// tightRange returns the integer range [ceil(lo-pad), floor(hi+pad)] of
// one axis of an element's voxel-space bounding box.
func tightRange(lo, hi float64) (int, int) {
	pad := 1e-6 * (1 + hi - lo)
	return int(math.Ceil(lo - pad)), int(math.Floor(hi + pad))
}

// BuildInterpTable computes the voxel→element interpolation table of
// this system's mesh on grid g; see the package function.
func (s *System) BuildInterpTable(g volume.Grid) *InterpTable { return BuildInterpTable(s.Mesh, g) }

// BuildInterpTable computes the voxel→element interpolation table of
// mesh m on grid g. Applying the table reproduces
// DisplacementField exactly (same coverage, same weights, same
// overwrite order). Building it is one rasterization — per element one
// Shape and a barycentric test of the voxel centres in its bounding box,
// eight at one cell per voxel — which DisplacementField repeats on
// every call and Apply never does.
func BuildInterpTable(m *mesh.Mesh, g volume.Grid) *InterpTable {
	t := &InterpTable{grid: g}
	// A voxel centre on a shared face, edge or node lies inside every
	// element around it — at one node per voxel, two dozen of them. Only
	// the last element to cover a voxel shows in DisplacementField, so
	// the table keeps one entry per voxel and lets later elements
	// overwrite it: entry[voxel] is the voxel's entry, -1 before it has one.
	entry := make([]int32, g.NX*g.NY*g.NZ)
	for i := range entry {
		entry[i] = -1
	}
	rasterize(m, g, func(i, j, k int, nodes [4]int32, w [4]float64) {
		idx := g.Index(i, j, k)
		if n := entry[idx]; n >= 0 {
			copy(t.nodes[4*n:], nodes[:])
			copy(t.w[4*n:], w[:])
			return
		}
		entry[idx] = int32(len(t.vox))
		t.vox = append(t.vox, int32(idx))
		t.nodes = append(t.nodes, nodes[0], nodes[1], nodes[2], nodes[3])
		t.w = append(t.w, w[0], w[1], w[2], w[3])
	})
	t.checkShape()
	return t
}

// TableParts exposes the table's grid and backing arrays for
// serialization (the core artifact codec). Callers must treat the
// returned slices as read-only: they are the live gather arrays.
func (t *InterpTable) TableParts() (g volume.Grid, vox, nodes []int32, w []float64) {
	return t.grid, t.vox, t.nodes, t.w
}

// InterpTableFromParts reconstructs a table from serialized parts,
// validating the four-entries-per-voxel shape contract with an error
// (rather than checkShape's panic) so a corrupt artifact blob fails
// decode instead of crashing the pipeline.
func InterpTableFromParts(g volume.Grid, vox, nodes []int32, w []float64) (*InterpTable, error) {
	if len(nodes) != 4*len(vox) || len(w) != 4*len(vox) {
		return nil, fmt.Errorf("fem: interp table parts: %d voxels need %d nodes and weights, got %d and %d",
			len(vox), 4*len(vox), len(nodes), len(w))
	}
	t := &InterpTable{grid: g, vox: vox, nodes: nodes, w: w}
	t.checkShape()
	return t, nil
}

// Covered returns how many voxels the table interpolates.
func (t *InterpTable) Covered() int { return len(t.vox) }

// Grid returns the grid the table was built for.
func (t *InterpTable) Grid() volume.Grid { return t.grid }

// Apply rasterizes nodal displacements through the cached table onto a
// dense backward-warp field — bit-identical to
// System.DisplacementField(nodeU, Grid()) at a fraction of the cost.
func (t *InterpTable) Apply(nodeU []geom.Vec3) *volume.Field {
	f := volume.NewField(t.grid)
	for n := range t.vox {
		b := 4 * n
		var d geom.Vec3
		for a := 0; a < 4; a++ {
			d = d.Add(nodeU[t.nodes[b+a]].Scale(t.w[b+a]))
		}
		idx := t.vox[n]
		f.DX[idx] = float32(d.X)
		f.DY[idx] = float32(d.Y)
		f.DZ[idx] = float32(d.Z)
	}
	return f
}
