// Package mesh implements the unstructured tetrahedral mesh generator
// for labeled 3D medical images described by the paper (Ferrant et al.,
// MICCAI 1999): the volumetric counterpart of a marching-tetrahedra
// surface generator. The labeled volume is covered by a coarsened cell
// lattice; every cell inside the object set is subdivided into six
// tetrahedra in the Kuhn pattern (all cells share the same diagonal
// orientation, so faces of neighboring cells match and the global mesh
// is fully connected and consistent). Each tetrahedron carries the
// tissue label found at its centroid, so different biomechanical
// properties can be assigned per anatomical structure, and boundary
// surfaces of any label set can be extracted as consistent triangle
// meshes for the active surface algorithm.
package mesh

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/volume"
)

// Mesh is an unstructured tetrahedral mesh with per-element tissue
// labels.
type Mesh struct {
	// Nodes are world-space vertex positions (mm).
	Nodes []geom.Vec3
	// Tets indexes Nodes, four per element, positively oriented.
	Tets [][4]int32
	// TetLabel is the tissue class of each element.
	TetLabel []volume.Label
}

// NumNodes returns the number of mesh vertices.
func (m *Mesh) NumNodes() int { return len(m.Nodes) }

// NumTets returns the number of tetrahedral elements.
func (m *Mesh) NumTets() int { return len(m.Tets) }

// TetGeom returns the geometry of element e.
func (m *Mesh) TetGeom(e int) geom.Tet {
	t := m.Tets[e]
	return geom.Tet{P: [4]geom.Vec3{
		m.Nodes[t[0]], m.Nodes[t[1]], m.Nodes[t[2]], m.Nodes[t[3]],
	}}
}

// TotalVolume returns the summed element volume (mm^3).
func (m *Mesh) TotalVolume() float64 {
	v := 0.0
	for e := range m.Tets {
		v += m.TetGeom(e).Volume()
	}
	return v
}

// Options configures mesh generation.
type Options struct {
	// CellSize is the edge length of each cubic cell in voxels; larger
	// cells give coarser meshes ("mesh elements that cover several image
	// pixels", as the paper puts it).
	CellSize int
	// Include selects which tissue labels belong to the meshed object.
	// nil means every non-background label.
	Include func(volume.Label) bool
}

// cells is the number of cells of cs voxels along a grid axis of n
// voxels: as many as fit, less a last one whose far corners, clamped
// into the grid, would fall on its near ones (cs = 1), since its tets
// would have zero volume.
func cells(n, cs int) int { return min(n/cs, (n+cs-2)/cs) }

// FromLabels generates a tetrahedral mesh of the labeled object(s).
func FromLabels(l *volume.Labels, opts Options) (*Mesh, error) {
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
	// Cell lattice: cells index [0, cx) x [0, cy) x [0, cz); lattice
	// points (cell corners) index [0, cx] x ...
	cx, cy, cz := cells(g.NX, cs), cells(g.NY, cs), cells(g.NZ, cs)
	if cx < 1 || cy < 1 || cz < 1 {
		return nil, fmt.Errorf("mesh: cell size %d too large for grid %v", cs, g)
	}
	lx, ly, lz := cx+1, cy+1, cz+1
	latticeIndex := func(i, j, k int) int { return (k*ly+j)*lx + i }
	nodeID := make([]int32, lx*ly*lz)
	for i := range nodeID {
		nodeID[i] = -1
	}

	m := &Mesh{}
	getNode := func(i, j, k int) int32 {
		li := latticeIndex(i, j, k)
		if nodeID[li] >= 0 {
			return nodeID[li]
		}
		// Lattice point (i,j,k) sits at voxel coordinate (i*cs, j*cs,
		// k*cs) clamped into the grid.
		vi, vj, vk := i*cs, j*cs, k*cs
		if vi > g.NX-1 {
			vi = g.NX - 1
		}
		if vj > g.NY-1 {
			vj = g.NY - 1
		}
		if vk > g.NZ-1 {
			vk = g.NZ - 1
		}
		id := int32(len(m.Nodes))
		m.Nodes = append(m.Nodes, g.World(vi, vj, vk))
		nodeID[li] = id
		return id
	}

	var tally [256]int
	// Kuhn subdivision: the six permutations of the axis order walk from
	// corner (0,0,0) to (1,1,1); all cells share the same diagonal so
	// neighbor faces match exactly.
	perms := [6][3][3]int{
		{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		{{1, 0, 0}, {0, 0, 1}, {0, 1, 0}},
		{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}},
		{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}},
		{{0, 0, 1}, {1, 0, 0}, {0, 1, 0}},
		{{0, 0, 1}, {0, 1, 0}, {1, 0, 0}},
	}

	for ck := 0; ck < cz; ck++ {
		for cj := 0; cj < cy; cj++ {
			for ci := 0; ci < cx; ci++ {
				lab := cellLabel(l, cs, ci, cj, ck, &tally)
				if !include(lab) {
					continue
				}
				for _, perm := range perms {
					// Corner walk: c0 -> c0+e_a -> +e_b -> +e_c.
					var corners [4][3]int
					corners[0] = [3]int{ci, cj, ck}
					for s := 0; s < 3; s++ {
						corners[s+1] = [3]int{
							corners[s][0] + perm[s][0],
							corners[s][1] + perm[s][1],
							corners[s][2] + perm[s][2],
						}
					}
					var ids [4]int32
					for s, c := range corners {
						ids[s] = getNode(c[0], c[1], c[2])
					}
					// Ensure positive orientation.
					t := geom.Tet{P: [4]geom.Vec3{
						m.Nodes[ids[0]], m.Nodes[ids[1]], m.Nodes[ids[2]], m.Nodes[ids[3]],
					}}
					if t.SignedVolume() < 0 {
						ids[2], ids[3] = ids[3], ids[2]
					}
					// Per-tet label: sample at the centroid so cells
					// straddling tissue boundaries get refined labels.
					tetLab := l.AtWorld(geom.Tet{P: [4]geom.Vec3{
						m.Nodes[ids[0]], m.Nodes[ids[1]], m.Nodes[ids[2]], m.Nodes[ids[3]],
					}}.Centroid())
					if !include(tetLab) {
						tetLab = lab
					}
					m.Tets = append(m.Tets, ids)
					m.TetLabel = append(m.TetLabel, tetLab)
				}
			}
		}
	}
	if len(m.Tets) == 0 {
		return nil, fmt.Errorf("mesh: no cells matched the include predicate")
	}
	return m, nil
}

// cellLabel returns the majority label of the in-bounds voxels of cell
// (ci, cj, ck) of cs^3 voxels: the lowest label among the most frequent,
// background for a cell wholly outside the grid. tally is scratch, all
// zero on entry and on return; only the cell's own labels are touched.
func cellLabel(l *volume.Labels, cs, ci, cj, ck int, tally *[256]int) volume.Label {
	g := l.Grid
	best, bestN := volume.LabelBackground, 0
	for pass := 0; pass < 2; pass++ {
		for vk := ck * cs; vk < (ck+1)*cs; vk++ {
			for vj := cj * cs; vj < (cj+1)*cs; vj++ {
				for vi := ci * cs; vi < (ci+1)*cs; vi++ {
					if !g.InBounds(vi, vj, vk) {
						continue
					}
					lab := l.Data[g.Index(vi, vj, vk)]
					if pass == 1 {
						tally[lab] = 0
						continue
					}
					tally[lab]++
					// Counts only grow, so the last label to reach the final
					// maximum is compared with every other that did.
					if n := tally[lab]; n > bestN || n == bestN && lab < best {
						best, bestN = lab, n
					}
				}
			}
		}
	}
	return best
}

// NodeAdjacency returns, for each node, the sorted list of distinct
// neighbor nodes sharing an element with it. The varying list lengths
// are the connectivity imbalance the paper blames for assembly scaling.
func (m *Mesh) NodeAdjacency() [][]int32 {
	adj := make(map[int32]map[int32]bool, len(m.Nodes))
	for _, t := range m.Tets {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if a == b {
					continue
				}
				s := adj[t[a]]
				if s == nil {
					s = map[int32]bool{}
					adj[t[a]] = s
				}
				s[t[b]] = true
			}
		}
	}
	out := make([][]int32, len(m.Nodes))
	for n, s := range adj {
		lst := make([]int32, 0, len(s))
		for v := range s {
			lst = append(lst, v)
		}
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
		out[n] = lst
	}
	return out
}

// QualityStats summarizes element quality.
type QualityStats struct {
	MinQuality, MeanQuality float64
	MinVolume, MaxVolume    float64
	Degenerate              int
}

// Quality computes element quality statistics (geom.Tet.AspectQuality:
// 1 = regular, 0 = degenerate).
func (m *Mesh) Quality() QualityStats {
	st := QualityStats{MinQuality: 1e300, MinVolume: 1e300}
	sum := 0.0
	for e := range m.Tets {
		t := m.TetGeom(e)
		q := t.AspectQuality()
		v := t.Volume()
		if q <= 1e-12 {
			st.Degenerate++
		}
		if q < st.MinQuality {
			st.MinQuality = q
		}
		if v < st.MinVolume {
			st.MinVolume = v
		}
		if v > st.MaxVolume {
			st.MaxVolume = v
		}
		sum += q
	}
	if n := len(m.Tets); n > 0 {
		st.MeanQuality = sum / float64(n)
	} else {
		st.MinQuality, st.MinVolume = 0, 0
	}
	return st
}

// LabelVolumes returns the total element volume per tissue label.
func (m *Mesh) LabelVolumes() map[volume.Label]float64 {
	out := map[volume.Label]float64{}
	for e := range m.Tets {
		out[m.TetLabel[e]] += m.TetGeom(e).Volume()
	}
	return out
}
