package fem

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/edt"
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
	m, _ := paperScaleMeshes(b, false)
	return m
}

// paperScaleMeshes returns the paper-scale lattice and, when snapped is
// set, the same mesh as the pipeline's SnapMesh option builds it too:
// surface nodes snapped to the segmentation boundary and the lattice
// relaxed, which leaves almost every element a shape of its own.
func paperScaleMeshes(b *testing.B, snapped bool) (lattice, snap *mesh.Mesh) {
	b.Helper()
	if testing.Short() {
		b.Skip("paper-scale mesh")
	}
	// Brain, ventricle, tumour, falx, resection: the tissues the
	// pipeline's biomechanical model deforms.
	tissue := func(l volume.Label) bool { return l >= volume.LabelBrain }
	p := phantom.DefaultParams(44)
	labels := phantom.GenerateLabels(phantom.GridFor(p), p)
	opts := mesh.Options{CellSize: 1, Include: tissue}
	lattice, err := mesh.FromLabels(labels, opts)
	if err != nil {
		b.Fatal(err)
	}
	if !snapped {
		return lattice, nil
	}
	if snap, err = mesh.FromLabels(labels, opts); err != nil {
		b.Fatal(err)
	}
	surf, err := snap.ExtractSurface(tissue)
	if err != nil {
		b.Fatal(err)
	}
	snap.SnapToLevelSet(surf.NodeID, edt.SignedOfSet(labels, tissue, 0), 1)
	snap.Smooth(3, 0.5)
	return lattice, snap
}

// BenchmarkAssemble77k assembles the paper-scale lattice with the
// material table every ledger workload uses (homogeneous: six element
// shapes for the memo) and with the heterogeneous one (about thirty),
// and the snapped mesh, where almost every element misses the memo.
func BenchmarkAssemble77k(b *testing.B) {
	lattice, snapped := paperScaleMeshes(b, true)
	for _, m := range []struct {
		name string
		m    *mesh.Mesh
	}{{"lattice", lattice}, {"snapped", snapped}} {
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
// their own 44^3 grid, one cell per voxel: what the first resample of a
// session pays.
func BenchmarkBuildInterpTable77k(b *testing.B) {
	lattice, snapped := paperScaleMeshes(b, true)
	g := volume.NewGrid(44, 44, 44, 1)
	for _, c := range []struct {
		name string
		m    *mesh.Mesh
	}{{"lattice", lattice}, {"snapped", snapped}} {
		b.Run(c.name, func(b *testing.B) {
			sys := &System{Mesh: c.m}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sys.BuildInterpTable(g).Covered() == 0 {
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
