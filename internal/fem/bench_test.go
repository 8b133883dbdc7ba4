package fem

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/phantom"
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
		if _, err := AssembleContext(context.Background(), m, mats, par.Even(m.NumNodes(), 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssembleParallel4(b *testing.B) {
	m := benchMesh(b, 12)
	mats := HomogeneousBrain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssembleContext(context.Background(), m, mats, par.Even(m.NumNodes(), 4)); err != nil {
			b.Fatal(err)
		}
	}
}

// paperScaleMesh is the benchmark ledger's problem: the brain tissues of
// the size-44 phantom meshed at cell size 1 — 25,347 nodes, 76,041
// equations, against the paper's 77,511. The 12^3 meshes above fit in L2;
// this one does not.
func paperScaleMesh(b *testing.B) *mesh.Mesh {
	return paperScaleMeshes(b, false)[0].m
}

// paperScaleCase is a paper-scale mesh with the grid its labels live on.
type paperScaleCase struct {
	name string
	m    *mesh.Mesh
	g    volume.Grid
}

// paperScaleMeshes returns the paper-scale lattice and, when offGrid is
// set, the BCC lattice of the same labels on a grid whose spacing and
// origin are off powers of two, which leaves almost every element a
// shape of its own.
func paperScaleMeshes(b *testing.B, offGrid bool) []paperScaleCase {
	b.Helper()
	if testing.Short() {
		b.Skip("paper-scale mesh")
	}
	// Brain, ventricle, tumour, falx, resection: the tissues the
	// pipeline's biomechanical model deforms.
	tissue := func(l volume.Label) bool { return l >= volume.LabelBrain }
	p := phantom.DefaultParams(44)
	labels := phantom.GenerateLabels(phantom.GridFor(p), p)
	shifted := *labels
	shifted.Grid.Spacing, shifted.Grid.Origin = geom.V(0.9, 1.1, 1.3), geom.V(-31.37, 7.21, 120.3)
	opts := mesh.Options{CellSize: 1, Include: tissue}
	cases := []struct {
		name   string
		labels *volume.Labels
		mesher func(*volume.Labels, mesh.Options) (*mesh.Mesh, error)
	}{{"lattice", labels, mesh.FromLabels}, {"offgrid-bcc", &shifted, mesh.FromLabelsBCC}}
	if !offGrid {
		cases = cases[:1]
	}
	var out []paperScaleCase
	for _, c := range cases {
		m, err := c.mesher(c.labels, opts)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, paperScaleCase{c.name, m, c.labels.Grid})
	}
	return out
}

// BenchmarkAssemble77k assembles the paper-scale lattice with the
// material table every ledger workload uses (homogeneous: six element
// shapes for the memo) and with the heterogeneous one (about thirty),
// and the off-grid BCC lattice, where almost every element misses the
// memo.
func BenchmarkAssemble77k(b *testing.B) {
	for _, m := range paperScaleMeshes(b, true) {
		pt := par.Even(m.m.NumNodes(), runtime.GOMAXPROCS(0))
		for _, c := range []struct {
			name string
			mats Table
		}{{"homogeneous", HomogeneousBrain()}, {"heterogeneous", HeterogeneousBrain()}} {
			b.Run(m.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := AssembleContext(context.Background(), m.m, c.mats, pt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuildInterpTable77k rasterizes the paper-scale meshes onto
// their own 44^3 grids, one cell per voxel: what the first resample of
// a session pays.
func BenchmarkBuildInterpTable77k(b *testing.B) {
	for _, c := range paperScaleMeshes(b, true) {
		b.Run(c.name, func(b *testing.B) {
			sys := &System{Mesh: c.m}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sys.BuildInterpTable(c.g).Covered() == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// paperScaleOperator assembles the paper-scale mesh on ranks ranks
// (homogeneous, as the ledger) and returns it with its surface nodes.
func paperScaleOperator(b *testing.B, ranks int) (*Operator, []int32) {
	m := paperScaleMesh(b)
	surf, err := m.ExtractSurface(func(volume.Label) bool { return true })
	if err != nil {
		b.Fatal(err)
	}
	sys, err := AssembleContext(context.Background(), m, HomogeneousBrain(), par.Even(m.NumNodes(), ranks))
	if err != nil {
		b.Fatal(err)
	}
	return sys.Operator, surf.NodeID
}

// BenchmarkEliminate77k is preop-assemble's elimination of the surface
// nodes, at GOMAXPROCS ranks.
func BenchmarkEliminate77k(b *testing.B) {
	op, nodes := paperScaleOperator(b, runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Eliminate(nodes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockJacobiILU077k factors the eliminated paper-scale
// operator in one block (≈ 76k rows) and in two.
func BenchmarkBlockJacobiILU077k(b *testing.B) {
	for _, blocks := range []int{1, 2} {
		b.Run(fmt.Sprint("blocks=", blocks), func(b *testing.B) {
			op, nodes := paperScaleOperator(b, blocks)
			elim, err := op.Eliminate(nodes)
			if err != nil {
				b.Fatal(err)
			}
			pt := elim.DOFPartition()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.NewBlockJacobiILU0(elim.K, pt); err != nil {
					b.Fatal(err)
				}
			}
		})
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
		sys, err := AssembleContext(context.Background(), m, HeterogeneousBrain(), pt)
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
	sys, err := AssembleContext(context.Background(), m, HomogeneousBrain(), par.Even(m.NumNodes(), 1))
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
		if _, err := sys.SolveContext(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisplacementField(b *testing.B) {
	m := benchMesh(b, 12)
	sys, err := AssembleContext(context.Background(), m, HomogeneousBrain(), par.Even(m.NumNodes(), 1))
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

// BenchmarkBlockJacobiApply77k applies the factor of the eliminated
// paper-scale operator in one block and in two: the preconditioner
// half of one GMRES iteration.
func BenchmarkBlockJacobiApply77k(b *testing.B) {
	for _, blocks := range []int{1, 2} {
		b.Run(fmt.Sprint("blocks=", blocks), func(b *testing.B) {
			op, nodes := paperScaleOperator(b, blocks)
			elim, err := op.Eliminate(nodes)
			if err != nil {
				b.Fatal(err)
			}
			pc, err := solver.NewBlockJacobiILU0(elim.K, elim.DOFPartition())
			if err != nil {
				b.Fatal(err)
			}
			r, z := make([]float64, elim.NumDOF), make([]float64, elim.NumDOF)
			for i := range r {
				r[i] = float64(i%7) - 3
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc.Apply(r, z)
			}
		})
	}
}
