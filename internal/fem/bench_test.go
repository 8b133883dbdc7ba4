package fem

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/volume"
)

func benchMesh(b *testing.B, n int) *mesh.Mesh {
	b.Helper()
	g := volume.NewGrid(n, n, n, 1)
	l := volume.NewLabels(g)
	for i := range l.Data {
		l.Data[i] = volume.LabelBrain
	}
	m, err := mesh.FromLabels(l, mesh.Options{CellSize: 2})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkElementStiffness(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tet := randTet(rng)
	mat := Material{E: 3000, Nu: 0.45}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elementStiffness(tet, mat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssembleSerial(b *testing.B) {
	m := benchMesh(b, 12)
	mats := HomogeneousBrain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(m, mats, par.Even(m.NumNodes(), 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssembleParallel4(b *testing.B) {
	m := benchMesh(b, 12)
	mats := HomogeneousBrain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(m, mats, par.Even(m.NumNodes(), 4)); err != nil {
			b.Fatal(err)
		}
	}
}

// paperScaleMesh is the benchmark ledger's problem: the brain tissues of
// the size-44 phantom meshed at cell size 1 — 25,347 nodes, 76,041
// equations, against the paper's 77,511. The 12^3 meshes above fit in L2;
// this one does not.
func paperScaleMesh(b *testing.B) *mesh.Mesh {
	b.Helper()
	if testing.Short() {
		b.Skip("paper-scale mesh")
	}
	// Brain, ventricle, tumour, falx, resection: the tissues the
	// pipeline's biomechanical model deforms.
	return phantomMesh(b, 44, mesh.FromLabels, mesh.Options{CellSize: 1, Include: func(l volume.Label) bool {
		return l >= volume.LabelBrain
	}})
}

func BenchmarkAssemble77k(b *testing.B) {
	m := paperScaleMesh(b)
	mats := HeterogeneousBrain()
	pt := par.Even(m.NumNodes(), runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(m, mats, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildInterpTable77k rasterizes the paper-scale mesh onto its
// own 44^3 grid, one cell per voxel: what the first resample of a
// session pays.
func BenchmarkBuildInterpTable77k(b *testing.B) {
	sys := &System{Mesh: paperScaleMesh(b)}
	g := volume.NewGrid(44, 44, 44, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.BuildInterpTable(g).Covered() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkApplyDirichlet77k(b *testing.B) {
	m := paperScaleMesh(b)
	surf, err := m.ExtractSurface(func(volume.Label) bool { return true })
	if err != nil {
		b.Fatal(err)
	}
	bc := map[int32]geom.Vec3{}
	for _, node := range surf.NodeID {
		bc[node] = geom.V(0.5, 0, 0)
	}
	pt := par.Even(m.NumNodes(), runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := Assemble(m, HeterogeneousBrain(), pt)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sys.ApplyDirichlet(bc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssemblyWorkModel(b *testing.B) {
	m := benchMesh(b, 16)
	pt := par.Even(m.NumNodes(), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AssemblyWorkModel(m, pt)
	}
}

func BenchmarkSolveSmallSystem(b *testing.B) {
	m := benchMesh(b, 10)
	sys, err := Assemble(m, HomogeneousBrain(), par.Even(m.NumNodes(), 1))
	if err != nil {
		b.Fatal(err)
	}
	surf, err := m.ExtractSurface(func(volume.Label) bool { return true })
	if err != nil {
		b.Fatal(err)
	}
	bc := map[int32]geom.Vec3{}
	for _, node := range surf.NodeID {
		bc[node] = geom.V(0.5, 0, 0)
	}
	if err := sys.ApplyDirichlet(bc); err != nil {
		b.Fatal(err)
	}
	opts := solver.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Solve(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisplacementField(b *testing.B) {
	m := benchMesh(b, 12)
	sys, err := Assemble(m, HomogeneousBrain(), par.Even(m.NumNodes(), 1))
	if err != nil {
		b.Fatal(err)
	}
	nodeU := make([]geom.Vec3, m.NumNodes())
	for n, p := range m.Nodes {
		nodeU[n] = geom.V(0.02*p.X, 0, 0)
	}
	g := volume.NewGrid(12, 12, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.DisplacementField(nodeU, g)
	}
}
