package mesh

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// solidCube returns a label volume with an n^3 cube of brain filling the
// whole grid.
func solidCube(n int) *volume.Labels {
	g := volume.NewGrid(n, n, n, 1)
	l := volume.NewLabels(g)
	for i := range l.Data {
		l.Data[i] = volume.LabelBrain
	}
	return l
}

func TestFromLabelsSolidCube(t *testing.T) {
	l := solidCube(8)
	m, err := FromLabels(l, Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 4 cells per axis -> 64 cells -> 384 tets, 5^3 = 125 nodes.
	if m.NumTets() != 64*6 {
		t.Errorf("tets = %d, want 384", m.NumTets())
	}
	if m.NumNodes() != 125 {
		t.Errorf("nodes = %d, want 125", m.NumNodes())
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Mesh volume must equal the lattice volume: (8-1... cells cover
	// voxel centers 0..8 in steps of 2, so extent is 8 per axis? The
	// lattice spans voxel coords 0..8 clamped to 0..7 at the far face:
	// accept the analytic volume of the tet decomposition instead.
	vol := m.TotalVolume()
	if vol <= 0 {
		t.Error("zero mesh volume")
	}
	// All six tets of a cell tile it exactly: volume equals the summed
	// cell volume (7 voxel units per axis on the last row due to
	// clamping: 3 full 2-unit cells + 1 clamped 1-unit cell).
	want := math.Pow(2*3+1, 3)
	if math.Abs(vol-want) > 1e-9 {
		t.Errorf("mesh volume = %v, want %v", vol, want)
	}
}

// TestMeshersHonourSpacingAndOrigin: node positions are millimetres in
// the scanner frame, not voxel indices — the two coincide only on a
// 1 mm grid at the origin, which is what the other mesher tests use.
func TestMeshersHonourSpacingAndOrigin(t *testing.T) {
	l := solidCube(8)
	l.Grid.Spacing = geom.V(0.9, 1.1, 2.5)
	l.Grid.Origin = geom.V(-40, 12, 7)
	lo, hi := l.Grid.World(0, 0, 0), l.Grid.World(7, 7, 7)
	for name, mesher := range map[string]func(*volume.Labels, Options) (*Mesh, error){
		"kuhn": FromLabels, "bcc": FromLabelsBCC,
	} {
		m, err := mesher(l, Options{CellSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		min, max := m.Nodes[0], m.Nodes[0]
		for _, p := range m.Nodes {
			min = geom.V(math.Min(min.X, p.X), math.Min(min.Y, p.Y), math.Min(min.Z, p.Z))
			max = geom.V(math.Max(max.X, p.X), math.Max(max.Y, p.Y), math.Max(max.Z, p.Z))
		}
		if min.Dist(lo) > 1e-9 || max.Dist(hi) > 1e-9 {
			t.Errorf("%s: nodes span %v..%v, want the grid's %v..%v", name, min, max, lo, hi)
		}
		if vol, want := m.TotalVolume(), 343*0.9*1.1*2.5; math.Abs(vol-want) > 1e-6 {
			t.Errorf("%s: mesh volume = %v mm^3, want %v", name, vol, want)
		}
	}
}

func TestFromLabelsSkipsBackground(t *testing.T) {
	g := volume.NewGrid(8, 8, 8, 1)
	l := volume.NewLabels(g)
	// Brain only in one octant.
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				l.Set(i, j, k, volume.LabelBrain)
			}
		}
	}
	m, err := FromLabels(l, Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Only the 2x2x2 = 8 cells of the brain octant are meshed.
	if m.NumTets() != 8*6 {
		t.Errorf("tets = %d, want 48", m.NumTets())
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestFromLabelsIncludePredicate(t *testing.T) {
	l := solidCube(4)
	// Exclude everything -> error.
	if _, err := FromLabels(l, Options{CellSize: 2, Include: func(volume.Label) bool { return false }}); err == nil {
		t.Error("empty include accepted")
	}
}

func TestFromLabelsRejectsBadInputs(t *testing.T) {
	bad := &volume.Labels{Grid: volume.Grid{}}
	if _, err := FromLabels(bad, Options{}); err == nil {
		t.Error("invalid grid accepted")
	}
	l := solidCube(4)
	if _, err := FromLabels(l, Options{CellSize: 99}); err == nil {
		t.Error("oversized cell accepted")
	}
}

func TestMeshLabelsFollowAnatomy(t *testing.T) {
	p := phantom.DefaultParams(24)
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	l := phantom.GenerateLabels(g, p)
	m, err := FromLabels(l, Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	vols := m.LabelVolumes()
	if vols[volume.LabelBrain] == 0 {
		t.Error("no brain elements")
	}
	if vols[volume.LabelSkull] == 0 {
		t.Error("no skull elements")
	}
	// Brain should dominate intracranial volume.
	if vols[volume.LabelBrain] < vols[volume.LabelVentricle] {
		t.Error("ventricles larger than brain")
	}
}

func TestNodeAdjacencySymmetric(t *testing.T) {
	l := solidCube(6)
	m, err := FromLabels(l, Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	adj := m.NodeAdjacency()
	for a, neigh := range adj {
		for _, b := range neigh {
			found := false
			for _, back := range adj[b] {
				if int(back) == a {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", a, b)
			}
		}
	}
	// Interior nodes of a Kuhn lattice have higher valence than corner
	// nodes — the connectivity imbalance the paper describes.
	minV, maxV := 1<<30, 0
	for _, neigh := range adj {
		if len(neigh) == 0 {
			continue
		}
		if len(neigh) < minV {
			minV = len(neigh)
		}
		if len(neigh) > maxV {
			maxV = len(neigh)
		}
	}
	if maxV <= minV {
		t.Errorf("expected connectivity variation, got min=%d max=%d", minV, maxV)
	}
}

func TestQualityStats(t *testing.T) {
	l := solidCube(4)
	m, err := FromLabels(l, Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := m.Quality()
	if q.Degenerate != 0 {
		t.Errorf("%d degenerate elements", q.Degenerate)
	}
	if q.MinQuality <= 0 || q.MinQuality > 1 {
		t.Errorf("MinQuality = %v", q.MinQuality)
	}
	if q.MeanQuality < q.MinQuality {
		t.Error("mean < min")
	}
	if q.MinVolume <= 0 || q.MaxVolume < q.MinVolume {
		t.Errorf("volumes: min=%v max=%v", q.MinVolume, q.MaxVolume)
	}
}

func TestCheckConsistencyCatchesBadMesh(t *testing.T) {
	l := solidCube(4)
	m, _ := FromLabels(l, Options{CellSize: 2})
	// Out-of-range node.
	bad := &Mesh{Nodes: m.Nodes, Tets: [][4]int32{{0, 1, 2, 9999}}, TetLabel: []volume.Label{1}}
	if err := bad.CheckConsistency(); err == nil {
		t.Error("out-of-range node accepted")
	}
	// Inverted element.
	tet := m.Tets[0]
	inv := &Mesh{
		Nodes:    m.Nodes,
		Tets:     [][4]int32{{tet[0], tet[1], tet[3], tet[2]}},
		TetLabel: []volume.Label{1},
	}
	if err := inv.CheckConsistency(); err == nil {
		t.Error("inverted element accepted")
	}
	// Label/tet count mismatch.
	mism := &Mesh{Nodes: m.Nodes, Tets: m.Tets, TetLabel: nil}
	if err := mism.CheckConsistency(); err == nil {
		t.Error("label count mismatch accepted")
	}
}

// TestFarFaceCellsKeepVolume: a brain that reaches the grid's far
// faces meshes without a zero-volume tet, on both meshers and at cell
// sizes 1 to 3. With one-voxel cells the far corners of the last cell
// layer would clamp onto its near ones, so that layer is not meshed;
// every Kuhn tet of a whole cell then has volume cs³/6.
func TestFarFaceCellsKeepVolume(t *testing.T) {
	g := volume.NewGrid(7, 7, 7, 1)
	l := volume.NewLabels(g)
	for k := 3; k < 7; k++ {
		for j := 3; j < 7; j++ {
			for i := 3; i < 7; i++ {
				l.Set(i, j, k, volume.LabelBrain)
			}
		}
	}
	for name, mesher := range map[string]func(*volume.Labels, Options) (*Mesh, error){
		"kuhn": FromLabels, "bcc": FromLabelsBCC,
	} {
		for cs := 1; cs <= 3; cs++ {
			m, err := mesher(l, Options{CellSize: cs})
			if err != nil {
				t.Fatalf("%s, cell size %d: %v", name, cs, err)
			}
			for e := range m.Tets {
				if v := m.TetGeom(e).Volume(); v <= 0 {
					t.Fatalf("%s, cell size %d: tet %d has volume %g", name, cs, e, v)
				}
			}
			if name == "kuhn" && cs == 1 {
				for e := range m.Tets {
					if v := m.TetGeom(e).Volume(); math.Abs(v-1.0/6) > 1e-12 {
						t.Fatalf("kuhn, cell size 1: tet %d has volume %g, want 1/6", e, v)
					}
				}
			}
		}
	}
}
