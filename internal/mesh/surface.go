package mesh

import (
	"fmt"
	"slices"

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

// faceRec is one in-set element face in ExtractSurface's bucket table:
// the two larger nodes of its key (the smallest names the bucket) and
// element*4+face, from which the outward winding is read back.
type faceRec struct {
	b, c, ef int32
}

// ExtractSurface returns the boundary surface of the sub-mesh whose
// element labels satisfy inSet: the faces belonging to exactly one
// in-set element. This yields the brain surface when inSet selects the
// intracranial tissues, exactly what the active surface algorithm
// needs.
//
// The in-set faces are counting-sorted into one bucket per smallest
// node and each bucket is ordered by the other two nodes; a key that
// occurs once is a boundary face, and buckets ascend, so the surface
// comes out in ascending key order.
func (m *Mesh) ExtractSurface(inSet func(volume.Label) bool) (*TriMesh, error) {
	if inSet == nil {
		return nil, fmt.Errorf("mesh: nil label predicate")
	}
	// start[n+1] first counts bucket n, then (prefix-summed) is where it
	// begins, then — advanced by the scatter — where it ends, which leaves
	// bucket n at recs[start[n]:start[n+1]].
	start := make([]int32, len(m.Nodes)+2)
	nFaces := 0
	for e, t := range m.Tets {
		if !inSet(m.TetLabel[e]) {
			continue
		}
		nFaces += len(tetFaces)
		for _, f := range tetFaces {
			start[min(t[f[0]], t[f[1]], t[f[2]])+2]++
		}
	}
	for n := 2; n < len(start); n++ {
		start[n] += start[n-1]
	}
	recs := make([]faceRec, nFaces)
	for e, t := range m.Tets {
		if !inSet(m.TetLabel[e]) {
			continue
		}
		for fi, f := range tetFaces {
			key := makeFaceKey(t[f[0]], t[f[1]], t[f[2]])
			recs[start[key[0]+1]] = faceRec{key[1], key[2], int32(4*e + fi)}
			start[key[0]+1]++
		}
	}
	sortFaceBuckets(recs, start[:len(m.Nodes)+1])

	s := &TriMesh{}
	vertOf := make([]int32, len(m.Nodes)) // surface vertex of a node, +1; 0 = none yet
	getVert := func(node int32) int32 {
		if vertOf[node] == 0 {
			s.Verts = append(s.Verts, m.Nodes[node])
			s.NodeID = append(s.NodeID, node)
			vertOf[node] = int32(len(s.Verts))
		}
		return vertOf[node] - 1
	}
	for n := range m.Nodes {
		bucket := recs[start[n]:start[n+1]]
		for i := 0; i < len(bucket); {
			j := i + 1
			for j < len(bucket) && bucket[j].b == bucket[i].b && bucket[j].c == bucket[i].c {
				j++
			}
			if j == i+1 {
				t, f := m.Tets[bucket[i].ef/4], tetFaces[bucket[i].ef%4]
				s.Tris = append(s.Tris, [3]int32{getVert(t[f[0]]), getVert(t[f[1]]), getVert(t[f[2]])})
			}
			i = j
		}
	}
	if len(s.Tris) == 0 {
		return nil, fmt.Errorf("mesh: label set has no boundary faces")
	}
	return s, nil
}

// sortFaceBuckets orders each bucket recs[start[n]:start[n+1]] by its
// records' (b, c). Insertion sort: a bucket holds the faces around one
// node that have it as their smallest — about twenty on the lattice
// meshes, bounded by the node's valence on any mesh.
//
//lint:hotpath
func sortFaceBuckets(recs []faceRec, start []int32) {
	for n := 0; n+1 < len(start); n++ {
		bucket := recs[start[n]:start[n+1]]
		for i := 1; i < len(bucket); i++ {
			r, j := bucket[i], i
			for j > 0 && (bucket[j-1].b > r.b || bucket[j-1].b == r.b && bucket[j-1].c > r.c) {
				bucket[j] = bucket[j-1]
				j--
			}
			bucket[j] = r
		}
	}
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
	// Every triangle edge in both directions, counting-sorted by source
	// vertex into one flat array (start as in ExtractSurface), then each
	// vertex's dozen targets sorted and deduplicated in place.
	start := make([]int32, len(s.Verts)+2)
	for _, t := range s.Tris {
		for _, v := range t {
			start[v+2] += 2
		}
	}
	for v := 2; v < len(start); v++ {
		start[v] += start[v-1]
	}
	flat := make([]int32, 6*len(s.Tris))
	for _, t := range s.Tris {
		for a, v := range t {
			at := start[v+1]
			flat[at], flat[at+1] = t[(a+1)%3], t[(a+2)%3]
			start[v+1] = at + 2
		}
	}
	out := make([][]int32, len(s.Verts))
	for v := range out {
		lst := flat[start[v]:start[v+1]:start[v+1]]
		slices.Sort(lst)
		out[v] = slices.Compact(lst)
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
