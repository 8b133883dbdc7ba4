package mesh

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// The implementations ExtractSurface, VertexNeighbors and cellLabel
// replaced, kept as their oracles.

// extractSurfaceMap is the map-keyed extraction: one record per distinct
// face, boundary keys sorted with sort.Slice.
func extractSurfaceMap(m *Mesh, inSet func(volume.Label) bool) *TriMesh {
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
		s.Tris = append(s.Tris, [3]int32{getVert(r.tri[0]), getVert(r.tri[1]), getVert(r.tri[2])})
	}
	return s
}

// vertexNeighborsMap builds one set per vertex.
func vertexNeighborsMap(s *TriMesh) [][]int32 {
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

// cellLabelTable clears and scans a 256-entry table per cell.
func cellLabelTable(l *volume.Labels, cs, ci, cj, ck int) volume.Label {
	g := l.Grid
	var count [256]int
	for dk := 0; dk < cs; dk++ {
		for dj := 0; dj < cs; dj++ {
			for di := 0; di < cs; di++ {
				vi, vj, vk := ci*cs+di, cj*cs+dj, ck*cs+dk
				if g.InBounds(vi, vj, vk) {
					count[l.Data[g.Index(vi, vj, vk)]]++
				}
			}
		}
	}
	best, bestN := volume.LabelBackground, -1
	for lab := 0; lab < 256; lab++ {
		if count[lab] > bestN {
			best, bestN = volume.Label(lab), count[lab]
		}
	}
	return best
}

func TestExtractSurfaceMatchesMapOracle(t *testing.T) {
	p := phantom.DefaultParams(24)
	labels := phantom.GenerateLabels(phantom.GridFor(p), p)
	brain := func(lab volume.Label) bool { return lab >= volume.LabelBrain }
	kuhn, err := FromLabels(labels, Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	bcc, err := FromLabelsBCC(labels, Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Three elements around one face (no generator builds this): the face
	// is nobody's boundary, the other nine are.
	fan := &Mesh{
		Nodes: []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(0, 0, 1), geom.V(0, 0, -1), geom.V(1, 1, 1)},
		Tets:  [][4]int32{{0, 1, 2, 3}, {0, 2, 1, 4}, {0, 1, 2, 5}},
		TetLabel: []volume.Label{
			volume.LabelBrain, volume.LabelBrain, volume.LabelBrain,
		},
	}
	sets := map[string]func(volume.Label) bool{
		"brain set":    brain,
		"single label": func(lab volume.Label) bool { return lab == volume.LabelBrain },
		"all labels":   func(volume.Label) bool { return true },
	}
	for name, m := range map[string]*Mesh{"kuhn": kuhn, "bcc": bcc, "fan": fan} {
		for setName, inSet := range sets {
			got, err := m.ExtractSurface(inSet)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, setName, err)
			}
			want := extractSurfaceMap(m, inSet)
			if !reflect.DeepEqual(got.Tris, want.Tris) || !reflect.DeepEqual(got.NodeID, want.NodeID) ||
				!reflect.DeepEqual(got.Verts, want.Verts) {
				t.Errorf("%s, %s: surface differs from the map oracle (%d/%d triangles, %d/%d vertices)",
					name, setName, got.NumTris(), want.NumTris(), got.NumVerts(), want.NumVerts())
			}
		}
	}
	if s, _ := fan.ExtractSurface(brain); s.NumTris() != 9 {
		t.Errorf("fan: %d boundary faces, want 9", s.NumTris())
	}
}

func TestVertexNeighborsMatchesMapOracle(t *testing.T) {
	_, cube := cubeSurface(t, 6, 1)
	p := phantom.DefaultParams(24)
	m, err := FromLabels(phantom.GenerateLabels(phantom.GridFor(p), p), Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	brain, err := m.ExtractSurface(func(lab volume.Label) bool { return lab >= volume.LabelBrain })
	if err != nil {
		t.Fatal(err)
	}
	// A vertex no triangle uses keeps an empty, non-nil list.
	loose := cube.Clone()
	loose.Verts = append(loose.Verts, geom.V(9, 9, 9))
	for name, s := range map[string]*TriMesh{"cube": cube, "brain": brain, "loose vertex": loose} {
		if got, want := s.VertexNeighbors(), vertexNeighborsMap(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: adjacency differs from the map oracle", name)
		}
	}
}

func TestCellLabelMatchesTableOracle(t *testing.T) {
	var tally [256]int
	check := func(l *volume.Labels, cs, ci, cj, ck int) {
		t.Helper()
		got, want := cellLabel(l, cs, ci, cj, ck, &tally), cellLabelTable(l, cs, ci, cj, ck)
		if got != want {
			t.Fatalf("cell (%d,%d,%d) of %d^3 in %v: label %d, table oracle %d", ci, cj, ck, cs, l.Grid, got, want)
		}
		if tally != ([256]int{}) {
			t.Fatalf("cell (%d,%d,%d): tally not cleared", ci, cj, ck)
		}
	}
	// Exhaustive: every labelling of a 2x2x1 block by three labels, as one
	// cell of size 2 (half of it overhangs in z) and as cells of size 1.
	l := volume.NewLabels(volume.NewGrid(2, 2, 1, 1))
	for code := 0; code < 81; code++ {
		for v, c := 0, code; v < 4; v, c = v+1, c/3 {
			l.Data[v] = volume.Label(5 * (c % 3))
		}
		check(l, 2, 0, 0, 0)
		for v := 0; v < 4; v++ {
			check(l, 1, v%2, v/2, 0)
		}
	}
	// Random: few labels so that ties are common; cells on, across and
	// wholly beyond the grid's far faces.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 1000; trial++ {
		g := volume.NewGrid(1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7), 1)
		l := volume.NewLabels(g)
		nLabels := 1 + rng.Intn(4)
		for i := range l.Data {
			l.Data[i] = volume.Label(rng.Intn(nLabels) * 85)
		}
		for n := 0; n < 100; n++ {
			cs := 1 + rng.Intn(4)
			check(l, cs, rng.Intn(g.NX/cs+2), rng.Intn(g.NY/cs+2), rng.Intn(g.NZ/cs+2))
		}
	}
}
