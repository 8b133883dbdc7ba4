// Package figures regenerates the tables and figures of the paper's
// evaluation section: it builds biomechanical systems of the paper's
// sizes (77,511 and 253,308 equations) from synthetic neurosurgery
// cases, runs the instrumented parallel assembly and GMRES/block-Jacobi
// solve, and feeds the measured per-rank work and iteration counts into
// the cluster machine models to produce the timing curves of Figures 7,
// 8a, 8b and 9. The match-quality content of Figures 4 and 5 and the
// pipeline timeline of Figure 6 are produced by the core pipeline
// (package core); this package focuses on the scaling study.
package figures

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/solver"
	"repro/internal/volume"
)

// SystemSpec describes the biomechanical system to build.
type SystemSpec struct {
	// TargetEquations is the desired number of equations (3x nodes);
	// the grid resolution is calibrated to approach it.
	TargetEquations int
	// CellSize is the mesh cell size in voxels.
	CellSize int
	// Materials is the constitutive model (defaults to the paper's
	// homogeneous brain).
	Materials *fem.Table
	// Seed controls the phantom generation.
	Seed int64
}

// Built is a ready-to-solve biomechanical system.
type Built struct {
	Case    *phantom.Case
	Mesh    *mesh.Mesh
	System  *fem.System
	NumEq   int
	NumBC   int
	GridDim int
}

// calibrateGridDim finds a phantom grid dimension whose mesh node count
// approaches targetNodes.
func calibrateGridDim(targetNodes, cellSize int, seed int64) (int, error) {
	n := int(math.Cbrt(float64(targetNodes)*2.2)) * cellSize
	if n < 8*cellSize {
		n = 8 * cellSize
	}
	best, bestDiff := 0, math.MaxFloat64
	for iter := 0; iter < 4; iter++ {
		p := phantom.DefaultParams(n)
		p.Seed = seed
		g := volume.NewGrid(n, n, n, p.Spacing)
		labels := phantom.GenerateLabels(g, p)
		m, err := mesh.FromLabels(labels, mesh.Options{CellSize: cellSize, Include: volume.IsBrainTissue})
		if err != nil {
			return 0, err
		}
		nodes := m.NumNodes()
		diff := math.Abs(float64(nodes - targetNodes))
		if diff < bestDiff {
			best, bestDiff = n, diff
		}
		if diff/float64(targetNodes) < 0.03 {
			break
		}
		scale := math.Cbrt(float64(targetNodes) / float64(nodes))
		next := int(math.Round(float64(n) * scale))
		// Keep cell alignment and guarantee progress.
		next = (next / cellSize) * cellSize
		if next == n {
			break
		}
		n = next
	}
	if best == 0 {
		return 0, fmt.Errorf("figures: calibration failed for %d nodes", targetNodes)
	}
	return best, nil
}

// BuildHeadSystem generates a synthetic neurosurgery case sized to the
// requested number of equations, meshes the intracranial tissues,
// assembles the stiffness matrix and applies the ground-truth surface
// displacements as Dirichlet boundary conditions — the exact system the
// paper assembles and solves in its scaling study.
func BuildHeadSystem(ctx context.Context, spec SystemSpec) (*Built, error) {
	if spec.TargetEquations <= 0 {
		return nil, fmt.Errorf("figures: TargetEquations must be positive")
	}
	cs := spec.CellSize
	if cs <= 0 {
		cs = 2
	}
	mats := fem.HomogeneousBrain()
	if spec.Materials != nil {
		mats = *spec.Materials
	}
	targetNodes := spec.TargetEquations / 3
	n, err := calibrateGridDim(targetNodes, cs, spec.Seed)
	if err != nil {
		return nil, err
	}
	p := phantom.DefaultParams(n)
	p.Seed = spec.Seed
	c := phantom.Generate(p)
	m, err := mesh.FromLabels(c.PreopLabels, mesh.Options{CellSize: cs, Include: volume.IsBrainTissue})
	if err != nil {
		return nil, err
	}
	if err := m.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("figures: generated mesh inconsistent: %w", err)
	}
	sys, err := fem.AssembleContext(ctx, m, mats, par.Even(m.NumNodes(), 1))
	if err != nil {
		return nil, err
	}
	// Boundary conditions: the brain surface nodes move by the
	// ground-truth brain shift (standing in for the active surface
	// output, whose role in the pipeline is exercised by package core).
	surf, err := m.ExtractSurface(volume.IsBrainTissue)
	if err != nil {
		return nil, err
	}
	bc := make(map[int32]geom.Vec3, surf.NumVerts())
	for v, node := range surf.NodeID {
		// The stored truth field is a backward warp (intraop -> preop);
		// the forward surface displacement is its negation.
		bc[node] = c.Truth.SampleWorld(surf.Verts[v]).Scale(-1)
	}
	if err := sys.ApplyDirichlet(bc); err != nil {
		return nil, err
	}
	return &Built{
		Case:    c,
		Mesh:    m,
		System:  sys,
		NumEq:   sys.NumDOF,
		NumBC:   len(bc) * 3,
		GridDim: n,
	}, nil
}

// ScalingRow is one point of a scaling figure.
type ScalingRow struct {
	CPUs        int
	AssembleSec float64
	SolveSec    float64
	// TotalSec includes the machine's initialization time, matching the
	// "sum of initialization, assembly and solve" curve of Figure 7.
	TotalSec   float64
	Iterations int
	Converged  bool
	// MeasuredSolveSec is the actual Go wall-clock of the solve on this
	// machine, for reference (dominated by GOMAXPROCS here, not by the
	// modeled 1990s hardware).
	MeasuredSolveSec float64
}

// ScalingStudy sweeps CPU counts on the given machine model: for each
// count it recomputes the paper's node-based decomposition, re-runs the
// actual GMRES/block-Jacobi solve (iteration counts genuinely change
// with the number of blocks), and converts per-rank work into predicted
// times.
func ScalingStudy(ctx context.Context, b *Built, mach cluster.Machine, cpuCounts []int, opts solver.Options) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, p := range cpuCounts {
		if p < 1 || p > mach.MaxCPUs {
			return nil, fmt.Errorf("figures: %d CPUs outside machine range [1,%d]", p, mach.MaxCPUs)
		}
		row, err := ScalingPointStrategy(ctx, b, mach, p, opts, EvenStrategy)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Strategy selects the parallel decomposition of a scaling point.
type Strategy int

const (
	// EvenStrategy is the paper's decomposition: approximately equal
	// node counts per CPU.
	EvenStrategy Strategy = iota
	// BalancedStrategy is the paper's proposed future work: partition
	// boundaries placed by measured per-node work (element connectivity
	// for assembly, row nnz after boundary-condition substitution for
	// the solve).
	BalancedStrategy
)

// ScalingPointStrategy computes one row of a scaling figure under the
// chosen decomposition strategy.
func ScalingPointStrategy(ctx context.Context, b *Built, mach cluster.Machine, cpus int, opts solver.Options, strat Strategy) (ScalingRow, error) {
	m := b.Mesh
	sys := b.System
	var nodePt, dofPt par.Partition
	if strat == BalancedStrategy {
		nodePt = fem.BalancedNodePartition(m, cpus)
		dofPt = sys.BalancedDOFPartition(cpus)
	} else {
		nodePt = par.Even(m.NumNodes(), cpus)
		dofStarts := make([]int, cpus+1)
		for i := range dofStarts {
			dofStarts[i] = nodePt.Starts[i] * 3
		}
		dofPt = par.Partition{N: sys.NumDOF, P: cpus, Starts: dofStarts}
	}
	flops, entries := fem.AssemblyWorkModel(m, nodePt)
	assembleSec := mach.AssemblyTime(cluster.AssemblyWork{
		FlopsPerRank:   flops,
		EntriesPerRank: entries,
	})

	pc, err := solver.NewBlockJacobiILU0(sys.K, dofPt)
	if err != nil {
		return ScalingRow{}, err
	}
	solveOpts := opts
	solveOpts.Partition = dofPt
	wallStart := time.Now()
	u, stats, err := solver.GMRESContext(ctx, sys.K, sys.F, nil, pc, solveOpts)
	if err != nil {
		return ScalingRow{}, err
	}
	measuredSolve := time.Since(wallStart).Seconds()
	_ = u

	pstats := sys.K.PartitionStats(dofPt)
	work := cluster.SolveWork{
		RowsPerRank:      make([]float64, cpus),
		NNZPerRank:       make([]float64, cpus),
		BlockNNZPerRank:  make([]float64, cpus),
		HaloInPerRank:    make([]float64, cpus),
		HaloPeersPerRank: make([]float64, cpus),
		MatVecs:          stats.MatVecs,
		PCApplies:        stats.PCApplies,
		DotProducts:      stats.DotProducts,
		AXPYs:            stats.AXPYs,
	}
	blockNNZ := pc.BlockNNZ()
	for r := 0; r < cpus; r++ {
		work.RowsPerRank[r] = float64(pstats[r].Rows)
		work.NNZPerRank[r] = float64(pstats[r].NNZ)
		work.BlockNNZPerRank[r] = float64(blockNNZ[r])
		work.HaloInPerRank[r] = float64(pstats[r].HaloIn)
		work.HaloPeersPerRank[r] = float64(pstats[r].HaloPeers)
	}
	solveSec := mach.SolveTime(work)
	return ScalingRow{
		CPUs:             cpus,
		AssembleSec:      assembleSec,
		SolveSec:         solveSec,
		TotalSec:         mach.InitTime + assembleSec + solveSec,
		Iterations:       stats.Iterations,
		Converged:        stats.Converged,
		MeasuredSolveSec: measuredSolve,
	}, nil
}

// FormatRows renders scaling rows as the text analogue of a timing
// figure.
func FormatRows(title string, rows []ScalingRow) string {
	out := title + "\n"
	out += fmt.Sprintf("%6s %12s %12s %12s %8s\n", "CPUs", "assemble(s)", "solve(s)", "total(s)", "iters")
	for _, r := range rows {
		out += fmt.Sprintf("%6d %12.2f %12.2f %12.2f %8d\n",
			r.CPUs, r.AssembleSec, r.SolveSec, r.TotalSec, r.Iterations)
	}
	return out
}
