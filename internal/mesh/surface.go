package mesh

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/numeric"
	"repro/internal/volume"
)

// TriMesh is a triangulated surface extracted from a tetrahedral mesh.
// Triangles are wound so their normals point out of the extracted
// region.
type TriMesh struct {
	Verts []geom.Vec3
	Tris  [][3]int32
	// NodeID maps each surface vertex back to its tetrahedral mesh node,
	// which is how surface displacements from the active surface
	// algorithm become boundary conditions of the volumetric FEM.
	NodeID []int32
}

// NumVerts returns the number of surface vertices.
func (s *TriMesh) NumVerts() int { return len(s.Verts) }

// NumTris returns the number of triangles.
func (s *TriMesh) NumTris() int { return len(s.Tris) }

// faceKey identifies a face independent of orientation.
type faceKey [3]int32

// makeFaceKey sorts the three nodes with three compare-exchanges: it
// runs four times per element and must not allocate.
func makeFaceKey(a, b, c int32) faceKey {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return faceKey{a, b, c}
}

// tetFaces lists the four faces of a positively oriented tetrahedron
// with outward-pointing winding.
var tetFaces = [4][3]int{{1, 2, 3}, {0, 3, 2}, {0, 1, 3}, {0, 2, 1}}

// ExtractSurface returns the boundary surface of the sub-mesh whose
// element labels satisfy inSet: the faces belonging to exactly one
// in-set element. This yields the brain surface when inSet selects the
// intracranial tissues, exactly what the active surface algorithm
// needs.
func (m *Mesh) ExtractSurface(inSet func(volume.Label) bool) (*TriMesh, error) {
	if inSet == nil {
		return nil, fmt.Errorf("mesh: nil label predicate")
	}
	type faceRec struct {
		tri   [3]int32
		count int
	}
	faces := make(map[faceKey]*faceRec)
	for e, t := range m.Tets {
		if !inSet(m.TetLabel[e]) {
			continue
		}
		for _, f := range tetFaces {
			a, b, c := t[f[0]], t[f[1]], t[f[2]]
			key := makeFaceKey(a, b, c)
			if r, ok := faces[key]; ok {
				r.count++
			} else {
				faces[key] = &faceRec{tri: [3]int32{a, b, c}, count: 1}
			}
		}
	}
	// Deterministic output order: sort boundary faces by key.
	keys := make([]faceKey, 0, len(faces))
	for k, r := range faces {
		if r.count == 1 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})

	s := &TriMesh{}
	vertOf := map[int32]int32{}
	getVert := func(node int32) int32 {
		if v, ok := vertOf[node]; ok {
			return v
		}
		v := int32(len(s.Verts))
		s.Verts = append(s.Verts, m.Nodes[node])
		s.NodeID = append(s.NodeID, node)
		vertOf[node] = v
		return v
	}
	for _, k := range keys {
		r := faces[k]
		s.Tris = append(s.Tris, [3]int32{
			getVert(r.tri[0]), getVert(r.tri[1]), getVert(r.tri[2]),
		})
	}
	if len(s.Tris) == 0 {
		return nil, fmt.Errorf("mesh: label set has no boundary faces")
	}
	return s, nil
}

// CheckConsistency verifies the structural invariants the paper's mesh
// generator guarantees ("a fully connected and consistent tetrahedral
// mesh"): every face is shared by at most two elements, all elements
// are positively oriented and non-degenerate, and all node indices are
// in range. It returns the first violation found.
func (m *Mesh) CheckConsistency() error {
	n := int32(len(m.Nodes))
	if len(m.TetLabel) != len(m.Tets) {
		return fmt.Errorf("mesh: %d labels for %d tets", len(m.TetLabel), len(m.Tets))
	}
	faceCount := make(map[faceKey]int)
	for e, t := range m.Tets {
		for _, id := range t {
			if id < 0 || id >= n {
				return fmt.Errorf("mesh: tet %d references node %d (have %d nodes)", e, id, n)
			}
		}
		if v := m.TetGeom(e).SignedVolume(); v <= 0 {
			return fmt.Errorf("mesh: tet %d has non-positive volume %g", e, v)
		}
		for _, f := range tetFaces {
			faceCount[makeFaceKey(t[f[0]], t[f[1]], t[f[2]])]++
		}
	}
	for k, c := range faceCount {
		if c > 2 {
			return fmt.Errorf("mesh: face %v shared by %d elements", k, c)
		}
	}
	return nil
}

// Area returns the total surface area (mm^2).
func (s *TriMesh) Area() float64 {
	a := 0.0
	for _, t := range s.Tris {
		e1 := s.Verts[t[1]].Sub(s.Verts[t[0]])
		e2 := s.Verts[t[2]].Sub(s.Verts[t[0]])
		a += e1.Cross(e2).Norm() / 2
	}
	return a
}

// VertexNormals returns area-weighted per-vertex normals (unit length).
func (s *TriMesh) VertexNormals() []geom.Vec3 {
	normals := make([]geom.Vec3, len(s.Verts))
	for _, t := range s.Tris {
		e1 := s.Verts[t[1]].Sub(s.Verts[t[0]])
		e2 := s.Verts[t[2]].Sub(s.Verts[t[0]])
		fn := e1.Cross(e2) // magnitude = 2x area, direction = face normal
		for _, v := range t {
			normals[v] = normals[v].Add(fn)
		}
	}
	for i := range normals {
		normals[i] = normals[i].Normalized()
	}
	return normals
}

// VertexNeighbors returns, for each vertex, the sorted distinct
// neighbor vertices connected by a triangle edge — the stencil of the
// active surface's elastic membrane forces.
func (s *TriMesh) VertexNeighbors() [][]int32 {
	sets := make([]map[int32]bool, len(s.Verts))
	addEdge := func(a, b int32) {
		if sets[a] == nil {
			sets[a] = map[int32]bool{}
		}
		sets[a][b] = true
	}
	for _, t := range s.Tris {
		addEdge(t[0], t[1])
		addEdge(t[1], t[0])
		addEdge(t[1], t[2])
		addEdge(t[2], t[1])
		addEdge(t[2], t[0])
		addEdge(t[0], t[2])
	}
	out := make([][]int32, len(s.Verts))
	for v, set := range sets {
		lst := make([]int32, 0, len(set))
		for u := range set {
			lst = append(lst, u)
		}
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
		out[v] = lst
	}
	return out
}

// Centroid returns the area-weighted surface centroid.
func (s *TriMesh) Centroid() geom.Vec3 {
	var c geom.Vec3
	total := 0.0
	for _, t := range s.Tris {
		e1 := s.Verts[t[1]].Sub(s.Verts[t[0]])
		e2 := s.Verts[t[2]].Sub(s.Verts[t[0]])
		a := e1.Cross(e2).Norm() / 2
		mid := s.Verts[t[0]].Add(s.Verts[t[1]]).Add(s.Verts[t[2]]).Scale(1.0 / 3)
		c = c.Add(mid.Scale(a))
		total += a
	}
	if numeric.Zero(total) {
		return geom.Vec3{}
	}
	return c.Scale(1 / total)
}

// Clone returns a deep copy of the surface (used by the active surface
// algorithm, which deforms vertex positions iteratively).
func (s *TriMesh) Clone() *TriMesh {
	c := &TriMesh{
		Verts:  append([]geom.Vec3(nil), s.Verts...),
		Tris:   make([][3]int32, len(s.Tris)),
		NodeID: append([]int32(nil), s.NodeID...),
	}
	copy(c.Tris, s.Tris)
	return c
}
