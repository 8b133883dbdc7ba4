package mesh

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/geom"
	"repro/internal/phantom"
	"repro/internal/volume"
)

func cubeSurface(t *testing.T, n, cs int) (*Mesh, *TriMesh) {
	t.Helper()
	l := solidCube(n)
	m, err := FromLabels(l, Options{CellSize: cs})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.ExtractSurface(func(lab volume.Label) bool { return lab == volume.LabelBrain })
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestExtractSurfaceOfCube(t *testing.T) {
	_, s := cubeSurface(t, 8, 2)
	// A 4x4x4-cell cube has 6 faces x 16 squares x 2 triangles... the
	// Kuhn split puts 2 triangles per boundary square except the faces
	// crossed by cell diagonals: every square face is split into exactly
	// 2 triangles, so 6*16*2 = 192.
	if s.NumTris() != 192 {
		t.Errorf("tris = %d, want 192", s.NumTris())
	}
	// Surface vertices are the lattice boundary nodes: 5^3 - 3^3 = 98.
	if s.NumVerts() != 98 {
		t.Errorf("verts = %d, want 98", s.NumVerts())
	}
}

func TestSurfaceClosedEulerFormula(t *testing.T) {
	// For a closed genus-0 surface: V - E + F = 2.
	_, s := cubeSurface(t, 8, 2)
	edges := map[[2]int32]bool{}
	addEdge := func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		edges[[2]int32{a, b}] = true
	}
	for _, tri := range s.Tris {
		addEdge(tri[0], tri[1])
		addEdge(tri[1], tri[2])
		addEdge(tri[2], tri[0])
	}
	v, e, f := s.NumVerts(), len(edges), s.NumTris()
	if v-e+f != 2 {
		t.Errorf("Euler characteristic = %d, want 2 (V=%d E=%d F=%d)", v-e+f, v, e, f)
	}
}

func TestSurfaceNormalsPointOutward(t *testing.T) {
	_, s := cubeSurface(t, 8, 2)
	c := s.Centroid()
	normals := s.VertexNormals()
	outward := 0
	for v := range s.Verts {
		dir := s.Verts[v].Sub(c)
		if normals[v].Dot(dir) > 0 {
			outward++
		}
	}
	if frac := float64(outward) / float64(len(s.Verts)); frac < 0.99 {
		t.Errorf("only %.0f%% of normals point outward", 100*frac)
	}
}

func TestVertexNeighborsSymmetric(t *testing.T) {
	_, s := cubeSurface(t, 6, 2)
	nb := s.VertexNeighbors()
	for a, lst := range nb {
		if len(lst) == 0 {
			t.Fatalf("vertex %d has no neighbors", a)
		}
		for _, b := range lst {
			ok := false
			for _, back := range nb[b] {
				if int(back) == a {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("neighbor relation not symmetric: %d -> %d", a, b)
			}
		}
	}
}

func TestNodeIDMapsBackToMesh(t *testing.T) {
	m, s := cubeSurface(t, 6, 2)
	for v := range s.Verts {
		node := s.NodeID[v]
		if s.Verts[v] != m.Nodes[node] {
			t.Fatalf("vertex %d position does not match mesh node %d", v, node)
		}
	}
}

func TestExtractSurfaceErrors(t *testing.T) {
	l := solidCube(4)
	m, _ := FromLabels(l, Options{CellSize: 2})
	if _, err := m.ExtractSurface(nil); err == nil {
		t.Error("nil predicate accepted")
	}
	if _, err := m.ExtractSurface(func(volume.Label) bool { return false }); err == nil {
		t.Error("empty set accepted")
	}
}

func TestExtractBrainSurfaceFromPhantom(t *testing.T) {
	p := phantom.DefaultParams(24)
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	l := phantom.GenerateLabels(g, p)
	m, err := FromLabels(l, Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	inBrain := func(lab volume.Label) bool {
		switch lab {
		case volume.LabelBrain, volume.LabelVentricle, volume.LabelTumor, volume.LabelFalx:
			return true
		}
		return false
	}
	s, err := m.ExtractSurface(inBrain)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTris() < 100 {
		t.Errorf("suspiciously small brain surface: %d tris", s.NumTris())
	}
	// The brain surface centroid should be near the volume center.
	if d := s.Centroid().Dist(g.Center()); d > 3 {
		t.Errorf("brain surface centroid %v mm from grid center", d)
	}
}

// TestExtractSurfaceOrderPinned: the surface's triangle order and
// winding and its vertex numbering decide the boundary-condition map and
// everything downstream of it, so the face-key change may not move them.
// The digest is that of the sort.Slice-keyed extraction it replaced.
func TestExtractSurfaceOrderPinned(t *testing.T) {
	p := phantom.DefaultParams(24)
	m, err := FromLabels(phantom.GenerateLabels(phantom.GridFor(p), p), Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.ExtractSurface(func(lab volume.Label) bool { return lab >= volume.LabelBrain })
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, tri := range s.Tris {
		for _, v := range tri {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
	}
	for _, n := range s.NodeID {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(n)))
	}
	const want = 0x9fb239b03562a2d
	if got := h.Sum64(); got != want {
		t.Errorf("surface digest %#x over %d triangles and %d vertices, want %#x", got, s.NumTris(), s.NumVerts(), uint64(want))
	}
}

func TestMakeFaceKeySorts(t *testing.T) {
	want := faceKey{2, 5, 9}
	for _, in := range [][3]int32{{2, 5, 9}, {2, 9, 5}, {5, 2, 9}, {5, 9, 2}, {9, 2, 5}, {9, 5, 2}} {
		if got := makeFaceKey(in[0], in[1], in[2]); got != want {
			t.Errorf("makeFaceKey%v = %v", in, got)
		}
	}
	if got := makeFaceKey(4, 1, 4); got != (faceKey{1, 4, 4}) {
		t.Errorf("makeFaceKey(4,1,4) = %v", got)
	}
	if n := testing.AllocsPerRun(10, func() { makeFaceKey(3, 2, 1) }); n != 0 {
		t.Errorf("makeFaceKey allocates %v times", n)
	}
}

func TestSurfaceClone(t *testing.T) {
	_, s := cubeSurface(t, 6, 2)
	c := s.Clone()
	orig := s.Verts[0]
	c.Verts[0] = c.Verts[0].Add(geom.V(1, 2, 3))
	if s.Verts[0] != orig {
		t.Error("clone aliases verts")
	}
}
