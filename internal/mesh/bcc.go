package mesh

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/volume"
)

// FromLabelsBCC generates a tetrahedral mesh on the body-centered cubic
// lattice: cell corners plus cell centers, with four tetrahedra around
// every interior face (the two adjacent cell centers plus each face
// edge) and two around every boundary face. BCC tetrahedra are
// congruent and much closer to regular than the Kuhn split's, and every
// interior node sees the same connectivity pattern — the "tetrahedral
// mesh with a more regular connectivity pattern" the paper proposes as
// future work for better assembly scaling.
func FromLabelsBCC(l *volume.Labels, opts Options) (*Mesh, error) {
	if err := l.Grid.Validate(); err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	cs := opts.CellSize
	if cs <= 0 {
		cs = 1
	}
	include := opts.Include
	if include == nil {
		include = func(lab volume.Label) bool { return lab != volume.LabelBackground }
	}
	g := l.Grid
	cx, cy, cz := cells(g.NX, cs), cells(g.NY, cs), cells(g.NZ, cs)
	if cx < 1 || cy < 1 || cz < 1 {
		return nil, fmt.Errorf("mesh: cell size %d too large for grid %v", cs, g)
	}
	lx, ly, lz := cx+1, cy+1, cz+1

	// Majority label per cell, precomputed; background cells excluded.
	cellLab := make([]volume.Label, cx*cy*cz)
	cellIn := make([]bool, cx*cy*cz)
	cellIndex := func(i, j, k int) int { return (k*cy+j)*cx + i }
	var tally [256]int
	for ck := 0; ck < cz; ck++ {
		for cj := 0; cj < cy; cj++ {
			for ci := 0; ci < cx; ci++ {
				best := cellLabel(l, cs, ci, cj, ck, &tally)
				idx := cellIndex(ci, cj, ck)
				cellLab[idx] = best
				cellIn[idx] = include(best)
			}
		}
	}

	m := &Mesh{}
	cornerID := make([]int32, lx*ly*lz)
	for i := range cornerID {
		cornerID[i] = -1
	}
	centerID := make([]int32, cx*cy*cz)
	for i := range centerID {
		centerID[i] = -1
	}
	clampWorld := func(vi, vj, vk int) geom.Vec3 {
		if vi > g.NX-1 {
			vi = g.NX - 1
		}
		if vj > g.NY-1 {
			vj = g.NY - 1
		}
		if vk > g.NZ-1 {
			vk = g.NZ - 1
		}
		return g.World(vi, vj, vk)
	}
	getCorner := func(i, j, k int) int32 {
		li := (k*ly+j)*lx + i
		if cornerID[li] >= 0 {
			return cornerID[li]
		}
		id := int32(len(m.Nodes))
		m.Nodes = append(m.Nodes, clampWorld(i*cs, j*cs, k*cs))
		cornerID[li] = id
		return id
	}
	getCenter := func(ci, cj, ck int) int32 {
		idx := cellIndex(ci, cj, ck)
		if centerID[idx] >= 0 {
			return centerID[idx]
		}
		id := int32(len(m.Nodes))
		// Center at the midpoint of the cell's corner span.
		a := clampWorld(ci*cs, cj*cs, ck*cs)
		b := clampWorld((ci+1)*cs, (cj+1)*cs, (ck+1)*cs)
		m.Nodes = append(m.Nodes, a.Add(b).Scale(0.5))
		centerID[idx] = id
		return id
	}

	addTet := func(a, b, c, d int32) {
		ids := [4]int32{a, b, c, d}
		t := geom.Tet{P: [4]geom.Vec3{m.Nodes[a], m.Nodes[b], m.Nodes[c], m.Nodes[d]}}
		if t.SignedVolume() < 0 {
			ids[2], ids[3] = ids[3], ids[2]
		}
		lab := l.AtWorld(geom.Tet{P: [4]geom.Vec3{
			m.Nodes[ids[0]], m.Nodes[ids[1]], m.Nodes[ids[2]], m.Nodes[ids[3]],
		}}.Centroid())
		if !include(lab) {
			// Centroid sampling near boundaries can land outside the
			// include set: mark the tet background for now; the pass
			// after meshing gives it its nearest included label.
			lab = volume.LabelBackground
		}
		m.Tets = append(m.Tets, ids)
		m.TetLabel = append(m.TetLabel, lab)
	}

	// faceCorners lists the 4 corner lattice offsets of each +axis face
	// of cell (ci,cj,ck), in cyclic order around the face.
	type faceSpec struct {
		axis    int
		corners [4][3]int
	}
	faces := []faceSpec{
		{0, [4][3]int{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}, {1, 0, 1}}}, // +x
		{1, [4][3]int{{0, 1, 0}, {0, 1, 1}, {1, 1, 1}, {1, 1, 0}}}, // +y
		{2, [4][3]int{{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}}}, // +z
	}
	// Also the -axis boundary faces (only emitted when the neighbor is
	// absent).
	negFaces := []faceSpec{
		{0, [4][3]int{{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {0, 1, 0}}}, // -x
		{1, [4][3]int{{0, 0, 0}, {1, 0, 0}, {1, 0, 1}, {0, 0, 1}}}, // -y
		{2, [4][3]int{{0, 0, 0}, {0, 1, 0}, {1, 1, 0}, {1, 0, 0}}}, // -z
	}

	for ck := 0; ck < cz; ck++ {
		for cj := 0; cj < cy; cj++ {
			for ci := 0; ci < cx; ci++ {
				if !cellIn[cellIndex(ci, cj, ck)] {
					continue
				}
				cA := getCenter(ci, cj, ck)
				// +axis faces: pair with the neighbor when present (4
				// tets spanning both centers), else fan from cA (2 tets).
				for _, f := range faces {
					ni, nj, nk := ci, cj, ck
					switch f.axis {
					case 0:
						ni++
					case 1:
						nj++
					default:
						nk++
					}
					neighborIn := ni < cx && nj < cy && nk < cz && cellIn[cellIndex(ni, nj, nk)]
					var fc [4]int32
					for s, off := range f.corners {
						fc[s] = getCorner(ci+off[0], cj+off[1], ck+off[2])
					}
					if neighborIn {
						cB := getCenter(ni, nj, nk)
						for s := 0; s < 4; s++ {
							addTet(cA, cB, fc[s], fc[(s+1)%4])
						}
					} else {
						// Boundary face: pyramid from cA split along the
						// min-vertex diagonal for consistency.
						d0 := 0
						if min(fc[1], fc[3]) < min(fc[0], fc[2]) {
							d0 = 1
						}
						addTet(cA, fc[d0], fc[d0+1], fc[(d0+2)%4])
						addTet(cA, fc[d0], fc[(d0+2)%4], fc[(d0+3)%4])
					}
				}
				// -axis boundary faces.
				for _, f := range negFaces {
					ni, nj, nk := ci, cj, ck
					switch f.axis {
					case 0:
						ni--
					case 1:
						nj--
					default:
						nk--
					}
					neighborIn := ni >= 0 && nj >= 0 && nk >= 0 && cellIn[cellIndex(ni, nj, nk)]
					if neighborIn {
						continue // interior face handled by the neighbor's +axis pass
					}
					var fc [4]int32
					for s, off := range f.corners {
						fc[s] = getCorner(ci+off[0], cj+off[1], ck+off[2])
					}
					d0 := 0
					if min(fc[1], fc[3]) < min(fc[0], fc[2]) {
						d0 = 1
					}
					addTet(cA, fc[d0], fc[d0+1], fc[(d0+2)%4])
					addTet(cA, fc[d0], fc[(d0+2)%4], fc[(d0+3)%4])
				}
			}
		}
	}
	if len(m.Tets) == 0 {
		return nil, fmt.Errorf("mesh: no cells matched the include predicate")
	}
	// Tets whose centroid fell outside the include set keep background;
	// patch them to their nearest cell label for material assignment.
	for e, lab := range m.TetLabel {
		if lab == volume.LabelBackground {
			c := m.TetGeom(e).Centroid()
			m.TetLabel[e] = nearestIncludedLabel(l, c, include)
		}
	}
	return m, nil
}

// nearestIncludedLabel samples outward from p until an included label
// is found (bounded search), defaulting to the first included label of
// the volume. The outward walk steps in voxel space: neighbor probes
// are index offsets, not millimeter offsets, so anisotropic spacing
// cannot skew the search pattern.
func nearestIncludedLabel(l *volume.Labels, p geom.Vec3, include func(volume.Label) bool) volume.Label {
	v := l.Grid.Voxel(p).Round()
	if lab := l.AtVox(v); include(lab) {
		return lab
	}
	for r := 1; r <= 4; r++ {
		for _, d := range []geom.Voxel{
			{I: r}, {I: -r}, {J: r}, {J: -r}, {K: r}, {K: -r},
		} {
			if lab := l.AtVox(v.Add(d)); include(lab) {
				return lab
			}
		}
	}
	for _, lab := range l.Present() {
		if include(lab) {
			return lab
		}
	}
	return volume.LabelBackground
}
