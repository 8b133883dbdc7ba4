package surface

import (
	"context"
	"math"
	"testing"

	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/volume"
)

// sphereLabels builds a label volume with a sphere of the given radius
// (voxels) labeled brain, centered in an n^3 grid.
func sphereLabels(n int, radius float64) *volume.Labels {
	g := volume.NewGrid(n, n, n, 1)
	l := volume.NewLabels(g)
	c := g.Center()
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if g.World(i, j, k).Dist(c) <= radius {
					l.Set(i, j, k, volume.LabelBrain)
				}
			}
		}
	}
	return l
}

// brainSurface meshes a label volume and extracts the brain surface.
func brainSurface(t *testing.T, l *volume.Labels) *mesh.TriMesh {
	t.Helper()
	m, err := mesh.FromLabels(l, mesh.Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.ExtractSurface(func(lab volume.Label) bool { return lab == volume.LabelBrain })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEvolveShrinksSphereToSmallerTarget(t *testing.T) {
	// Source: sphere of radius 11. Target: concentric sphere of radius
	// 8. The active surface must move each vertex ~3mm inward.
	n := 32
	src := brainSurface(t, sphereLabels(n, 11))
	target := sphereLabels(n, 8)
	phi := edt.Signed(target, volume.LabelBrain, 0)
	res, err := EvolveContext(context.Background(), src, SignedDistanceForce{Phi: phi}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Logf("did not fully converge in %d iterations (mean %v)", res.Iterations, res.MeanDisp)
	}
	// Final vertices should sit near the radius-8 sphere.
	c := volume.NewGrid(n, n, n, 1).Center()
	maxErr := 0.0
	for _, v := range res.Final.Verts {
		if e := math.Abs(v.Dist(c) - 8); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1.6 {
		t.Errorf("max radial error %v mm, want <= 1.6", maxErr)
	}
	if res.MeanDisp < 2 || res.MeanDisp > 4.5 {
		t.Errorf("mean displacement %v, want ~3", res.MeanDisp)
	}
	if res.MaxDisp < res.MeanDisp {
		t.Error("max < mean displacement")
	}
}

func TestEvolveGrowsSphereToLargerTarget(t *testing.T) {
	n := 32
	src := brainSurface(t, sphereLabels(n, 8))
	target := sphereLabels(n, 11)
	phi := edt.Signed(target, volume.LabelBrain, 0)
	res, err := EvolveContext(context.Background(), src, SignedDistanceForce{Phi: phi}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := volume.NewGrid(n, n, n, 1).Center()
	maxErr := 0.0
	for _, v := range res.Final.Verts {
		if e := math.Abs(v.Dist(c) - 11); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1.6 {
		t.Errorf("max radial error %v mm, want <= 1.6", maxErr)
	}
}

func TestEvolveStationaryOnMatchedTarget(t *testing.T) {
	// Source and target identical: the blocky marching-tetrahedra
	// surface relaxes onto the smooth zero level set (sub-voxel
	// staircase correction) but must not drift beyond that.
	n := 24
	labels := sphereLabels(n, 8)
	src := brainSurface(t, labels)
	phi := edt.Signed(labels, volume.LabelBrain, 0)
	opts := DefaultOptions()
	res, err := EvolveContext(context.Background(), src, SignedDistanceForce{Phi: phi}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDisp > 2.0 {
		t.Errorf("matched target moved surface by %v mm on average", res.MeanDisp)
	}
	// Final surface sits on the radius-8 sphere.
	c := volume.NewGrid(n, n, n, 1).Center()
	sumErr := 0.0
	for _, v := range res.Final.Verts {
		sumErr += math.Abs(v.Dist(c) - 8)
	}
	if mean := sumErr / float64(len(res.Final.Verts)); mean > 1.0 {
		t.Errorf("mean radial error %v mm after matched-target evolution", mean)
	}
}

func TestEvolveInputUnmodified(t *testing.T) {
	n := 24
	src := brainSurface(t, sphereLabels(n, 8))
	orig := append([]geom.Vec3(nil), src.Verts...)
	phi := edt.Signed(sphereLabels(n, 10), volume.LabelBrain, 0)
	if _, err := EvolveContext(context.Background(), src, SignedDistanceForce{Phi: phi}, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for v := range src.Verts {
		if src.Verts[v] != orig[v] {
			t.Fatal("Evolve modified its input surface")
		}
	}
}

func TestEvolveErrors(t *testing.T) {
	if _, err := EvolveContext(context.Background(), nil, SignedDistanceForce{}, DefaultOptions()); err == nil {
		t.Error("nil surface accepted")
	}
	empty := &mesh.TriMesh{}
	if _, err := EvolveContext(context.Background(), empty, SignedDistanceForce{}, DefaultOptions()); err == nil {
		t.Error("empty surface accepted")
	}
	n := 24
	src := brainSurface(t, sphereLabels(n, 8))
	if _, err := EvolveContext(context.Background(), src, nil, DefaultOptions()); err == nil {
		t.Error("nil force accepted")
	}
}

func TestSmoothingRegularizesNoisyForce(t *testing.T) {
	// A rough (checkerboard) force field without smoothing produces a
	// rougher surface than with smoothing. Roughness measured as mean
	// distance of each vertex from its neighbor centroid.
	n := 24
	src := brainSurface(t, sphereLabels(n, 8))
	rough := roughForce{}
	opts := DefaultOptions()
	opts.MaxIter = 30
	opts.Tol = 0 // run all iterations
	opts.Smoothing = 0
	resNoSmooth, err := EvolveContext(context.Background(), src, rough, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Smoothing = 0.5
	resSmooth, err := EvolveContext(context.Background(), src, rough, opts)
	if err != nil {
		t.Fatal(err)
	}
	if roughness(resSmooth.Final) >= roughness(resNoSmooth.Final) {
		t.Errorf("smoothing did not reduce roughness: %v vs %v",
			roughness(resSmooth.Final), roughness(resNoSmooth.Final))
	}
}

// roughForce pushes alternate vertices in and out.
type roughForce struct{}

func (roughForce) At(p, normal geom.Vec3) geom.Vec3 {
	s := math.Sin(7*p.X) * math.Cos(9*p.Y) * math.Sin(5*p.Z)
	return normal.Scale(2 * s)
}

func roughness(s *mesh.TriMesh) float64 {
	nb := s.VertexNeighbors()
	sum := 0.0
	for v := range s.Verts {
		if len(nb[v]) == 0 {
			continue
		}
		var c geom.Vec3
		for _, u := range nb[v] {
			c = c.Add(s.Verts[u])
		}
		c = c.Scale(1 / float64(len(nb[v])))
		sum += s.Verts[v].Dist(c)
	}
	return sum / float64(len(s.Verts))
}

func TestEdgeForceStopsAtEdges(t *testing.T) {
	// Image with a strong edge at x=16: balloon force should be much
	// weaker on the edge than in flat regions.
	g := volume.NewGrid(32, 8, 8, 1)
	img := volume.NewScalar(g)
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 32; i++ {
				if i >= 16 {
					img.Set(i, j, k, 100)
				}
			}
		}
	}
	f := EdgeForce{Image: img, Pressure: 1, EdgeScale: 5}
	n := geom.V(1, 0, 0)
	flat := f.At(geom.V(5, 4, 4), n).Norm()
	edge := f.At(geom.V(15.5, 4, 4), n).Norm()
	if edge >= 0.2*flat {
		t.Errorf("edge force %v not much smaller than flat force %v", edge, flat)
	}
}

func TestEdgeForcePrior(t *testing.T) {
	g := volume.NewGrid(16, 8, 8, 1)
	img := volume.NewScalar(g)
	img.Fill(50)
	// With the prior level matching the local intensity, the stopping
	// term suppresses the force; far from the prior level it does not.
	fMatch := EdgeForce{Image: img, Pressure: 1, EdgeScale: 5, PriorLevel: 50, PriorWindow: 10}
	fOff := EdgeForce{Image: img, Pressure: 1, EdgeScale: 5, PriorLevel: 200, PriorWindow: 10}
	n := geom.V(1, 0, 0)
	p := geom.V(8, 4, 4)
	if fMatch.At(p, n).Norm() >= fOff.At(p, n).Norm() {
		t.Error("prior did not modulate force")
	}
}

func TestBoundaryConditionsMapToNodes(t *testing.T) {
	n := 24
	src := brainSurface(t, sphereLabels(n, 9))
	phi := edt.Signed(sphereLabels(n, 7), volume.LabelBrain, 0)
	res, err := EvolveContext(context.Background(), src, SignedDistanceForce{Phi: phi}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bc := res.BoundaryConditions()
	if len(bc) != src.NumVerts() {
		t.Errorf("bc count %d != vert count %d", len(bc), src.NumVerts())
	}
	for v, node := range src.NodeID {
		d, ok := bc[node]
		if !ok {
			t.Fatalf("node %d missing from boundary conditions", node)
		}
		if d != res.Displacements[v] {
			t.Fatalf("bc for node %d mismatches displacement", node)
		}
	}
}
