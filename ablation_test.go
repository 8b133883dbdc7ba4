// Ablation benchmarks for the design choices DESIGN.md calls out: the
// decomposition strategy (the paper's stated future work), the
// preconditioner family (the paper's PETSc configuration vs
// alternatives), the material model (homogeneous vs the proposed
// heterogeneous refinement), and mesh resolution (the paper's argument
// for unstructured grids over voxel-sized elements).
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/demons"
	"repro/internal/fem"
	"repro/internal/figures"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/solver"
	"repro/internal/volume"
)

// registerCase runs one full registration of the case's intraoperative
// scan through a fresh session.
func registerCase(cfg core.Config, c *phantom.Case) (*core.Result, error) {
	sess, err := core.NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		return nil, err
	}
	return sess.Register(context.Background(), c.Intraop)
}

// builtSystems caches the scaling-study systems per target size.
var builtMu sync.Mutex
var builtSystems = map[int]*figures.Built{}

func builtSystem(b *testing.B, eqs int) *figures.Built {
	b.Helper()
	builtMu.Lock()
	defer builtMu.Unlock()
	if sys, ok := builtSystems[eqs]; ok {
		return sys
	}
	sys, err := figures.BuildHeadSystem(context.Background(), figures.SystemSpec{TargetEquations: eqs, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	builtSystems[eqs] = sys
	return sys
}

// scalingEqs is the paper's system size, or a tenth of it under -short.
func scalingEqs() int {
	if testing.Short() {
		return figures.Equations77k / 10
	}
	return figures.Equations77k
}

// BenchmarkAblationLoadBalance compares the paper's equal-node-count
// decomposition with the work-aware decomposition it proposes as future
// work, on the Deep Flow model at 16 CPUs.
func BenchmarkAblationLoadBalance(b *testing.B) {
	eqs := scalingEqs()
	built := builtSystem(b, eqs)
	mach := cluster.DeepFlow()
	opts := solver.DefaultOptions()
	b.ResetTimer()
	var even, bal figures.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		even, err = figures.ScalingPointStrategy(context.Background(), built, mach, 16, opts, figures.EvenStrategy)
		if err != nil {
			b.Fatal(err)
		}
		bal, err = figures.ScalingPointStrategy(context.Background(), built, mach, 16, opts, figures.BalancedStrategy)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(even.AssembleSec, "even_assemble_s")
	b.ReportMetric(bal.AssembleSec, "balanced_assemble_s")
	b.ReportMetric(even.SolveSec, "even_solve_s")
	b.ReportMetric(bal.SolveSec, "balanced_solve_s")
	if bal.AssembleSec > even.AssembleSec*1.05 {
		b.Errorf("balanced assembly (%v) slower than even (%v)", bal.AssembleSec, even.AssembleSec)
	}
}

// BenchmarkAblationPreconditioner compares GMRES iteration counts under
// the paper's block Jacobi/ILU(0) against plain Jacobi and no
// preconditioning, on the scaling system.
func BenchmarkAblationPreconditioner(b *testing.B) {
	eqs := scalingEqs() / 4 // iteration-count study; smaller is fine
	built := builtSystem(b, eqs)
	sys := built.System
	opts := solver.DefaultOptions()
	pt := par.Even(sys.NumDOF, 16)

	type pcCase struct {
		name string
		pc   solver.Preconditioner
	}
	bj, err := solver.NewBlockJacobiILU0(sys.K, pt)
	if err != nil {
		b.Fatal(err)
	}
	bj1, err := solver.NewBlockJacobiILU0(sys.K, par.Even(sys.NumDOF, 1))
	if err != nil {
		b.Fatal(err)
	}
	ssor, err := solver.NewSSOR(sys.K, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	cases := []pcCase{
		{"none", solver.IdentityPC{}},
		{"jacobi", solver.NewJacobi(sys.K)},
		{"ssor", ssor},
		{"bj16_ilu0", bj},
		{"ilu0_global", bj1},
	}
	b.ResetTimer()
	iters := map[string]int{}
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			_, st, err := solver.GMRESContext(context.Background(), sys.K, sys.F, nil, c.pc, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !st.Converged {
				b.Fatalf("%s did not converge in %d iters", c.name, st.Iterations)
			}
			iters[c.name] = st.Iterations
		}
	}
	for name, it := range iters {
		b.ReportMetric(float64(it), "iters_"+name)
	}
	if iters["bj16_ilu0"] >= iters["none"] {
		b.Errorf("block Jacobi (%d iters) not better than unpreconditioned (%d)",
			iters["bj16_ilu0"], iters["none"])
	}
	if iters["ilu0_global"] > iters["bj16_ilu0"] {
		b.Errorf("global ILU(0) (%d iters) worse than 16-block (%d)",
			iters["ilu0_global"], iters["bj16_ilu0"])
	}
}

// BenchmarkAblationMaterialModel compares the paper's homogeneous model
// with its proposed heterogeneous refinement on recovery accuracy.
func BenchmarkAblationMaterialModel(b *testing.B) {
	c := phantom.Generate(phantom.DefaultParams(48))
	models := []struct {
		name string
		tab  fem.Table
	}{
		{"homogeneous", fem.HomogeneousBrain()},
		{"heterogeneous", fem.HeterogeneousBrain()},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mt := range models {
			cfg := core.DefaultConfig()
			cfg.SkipRigid = true
			cfg.Materials = mt.tab
			res, err := registerCase(cfg, c)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				ventMask := c.PreopLabels.Mask(volume.LabelVentricle)
				vent, err := res.Backward.RMSDifference(c.Truth, ventMask)
				if err != nil {
					b.Fatal(err)
				}
				brain, _, err := c.TruthRMS(res.Backward)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(vent, "vent_rms_mm_"+mt.name)
				b.ReportMetric(brain, "brain_rms_mm_"+mt.name)
			}
		}
	}
}

// BenchmarkBaselineDemonsVsBiomech compares the paper's biomechanical
// registration with its own previous image-based nonrigid method (the
// demons-style baseline): accuracy against ground truth, and the
// physical-plausibility violation (displacement of the rigid skull)
// that motivated the biomechanical model.
func BenchmarkBaselineDemonsVsBiomech(b *testing.B) {
	p := phantom.DefaultParams(48)
	p.NoiseStd = 2
	c := phantom.Generate(p)
	skullMask := c.PreopLabels.Mask(volume.LabelSkull)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.SkipRigid = true
		bio, err := registerCase(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		dm, err := demons.Register(c.Intraop, c.Preop, demons.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			bioRMS, _, err := c.TruthRMS(bio.Backward)
			if err != nil {
				b.Fatal(err)
			}
			dmRMS, _, err := c.TruthRMS(dm.Field)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(bioRMS, "biomech_rms_mm")
			b.ReportMetric(dmRMS, "demons_rms_mm")
			b.ReportMetric(bio.Backward.MeanMagnitude(skullMask), "biomech_skull_mm")
			b.ReportMetric(dm.Field.MeanMagnitude(skullMask), "demons_skull_mm")
			// The biomechanical model keeps the skull fixed (up to
			// sub-voxel interpolation bleed at the brain boundary when
			// the forward field is inverted); the image-driven baseline
			// moves it materially more.
			bioSkull := bio.Backward.MeanMagnitude(skullMask)
			dmSkull := dm.Field.MeanMagnitude(skullMask)
			if bioSkull > 0.2 {
				b.Errorf("biomechanical field moved the skull by %v mm", bioSkull)
			}
			if dmSkull <= 2*bioSkull {
				b.Errorf("demons skull displacement (%v mm) not clearly worse than biomechanical (%v mm)",
					dmSkull, bioSkull)
			}
		}
	}
}

// BenchmarkAblationMeshResolution sweeps the mesh cell size: the
// paper's argument that coarse unstructured elements drastically cut
// the equation count relative to voxel-sized elements, at modest
// accuracy cost.
func BenchmarkAblationMeshResolution(b *testing.B) {
	c := phantom.Generate(phantom.DefaultParams(48))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cell := range []int{2, 3, 4} {
			cfg := core.DefaultConfig()
			cfg.SkipRigid = true
			cfg.MeshCellSize = cell
			res, err := registerCase(cfg, c)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				rms, _, err := c.TruthRMS(res.Backward)
				if err != nil {
					b.Fatal(err)
				}
				suffix := fmt.Sprintf("_cell%d", cell)
				b.ReportMetric(float64(3*res.Mesh.NumNodes()), "equations"+suffix)
				b.ReportMetric(rms, "rms_mm"+suffix)
			}
		}
	}
}

// BenchmarkAblationMesher compares the paper's Kuhn marching-tetrahedra
// lattice with the body-centered-cubic lattice it proposes as future
// work ("a tetrahedral mesh with a more regular connectivity pattern"):
// element quality, equation count, recovered-field accuracy, and the
// assembly imbalance the regular connectivity is meant to reduce.
func BenchmarkAblationMesher(b *testing.B) {
	c := phantom.Generate(phantom.DefaultParams(48))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, useBCC := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.SkipRigid = true
			cfg.UseBCCMesh = useBCC
			res, err := registerCase(cfg, c)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				name := "kuhn"
				if useBCC {
					name = "bcc"
				}
				rms, _, err := c.TruthRMS(res.Backward)
				if err != nil {
					b.Fatal(err)
				}
				q := res.Mesh.Quality()
				b.ReportMetric(float64(3*res.Mesh.NumNodes()), "equations_"+name)
				b.ReportMetric(q.MeanQuality, "quality_"+name)
				b.ReportMetric(rms, "rms_mm_"+name)
				flops, _ := fem.AssemblyWorkModel(res.Mesh, par.Even(res.Mesh.NumNodes(), 16))
				max, sum := 0.0, 0.0
				for _, f := range flops {
					if f > max {
						max = f
					}
					sum += f
				}
				b.ReportMetric(max/(sum/16), "assembly_imbalance_"+name)
			}
		}
	}
}
