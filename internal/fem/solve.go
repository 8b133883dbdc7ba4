package fem

import (
	"context"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/volume"
)

// SolveResult bundles the solved displacement field with performance
// data for the scaling analysis.
type SolveResult struct {
	// U is the raw DOF solution.
	U []float64
	// NodeU is the per-node displacement.
	NodeU []geom.Vec3
	// Stats reports Krylov iteration counts.
	Stats solver.Stats
	// SolveTime is the measured wall-clock solve time.
	SolveTime time.Duration
	// PCSetupTime is the block Jacobi factorization time (≈0 on a
	// preconditioner-cache hit).
	PCSetupTime time.Duration
	// PCCacheHit reports that the factorized preconditioner was reused
	// from a previous solve on the same Operator.
	PCCacheHit bool
}

// Solve runs the solver with a background context; see SolveContext.
func (s *System) Solve(opts solver.Options) (*SolveResult, error) {
	return s.SolveContext(context.Background(), opts)
}

// SolveContext runs the paper's solver configuration — GMRES with block
// Jacobi preconditioning, one block per rank — on the assembled,
// constrained system. A cancelled or deadline-expired context aborts
// the Krylov iteration within one GMRES restart cycle and returns the
// context error.
func (s *System) SolveContext(ctx context.Context, opts solver.Options) (*SolveResult, error) {
	return s.solve(ctx, opts, nil)
}

// SolveWarmContext is SolveContext seeded with a previous displacement
// solution x0 (length NumDOF) — the incremental re-solve entry point.
// When the boundary displacements moved only a little since the
// previous solve, the seeded iterate starts near the new solution and
// GMRES converges in a fraction of the cold iteration count; the
// preconditioner factors are reused from the solve that produced x0
// whenever the stiffness matrix is unchanged.
func (s *System) SolveWarmContext(ctx context.Context, x0 []float64, opts solver.Options) (*SolveResult, error) {
	if len(x0) != s.NumDOF {
		return nil, fmt.Errorf("fem: warm-start seed length %d != %d DOFs", len(x0), s.NumDOF)
	}
	return s.solve(ctx, opts, x0)
}

// solve is the shared cold/warm solve body: the Operator's
// preconditioner, factorized by whichever solve asks first, then GMRES
// from x0 (nil = zero start).
func (s *System) solve(ctx context.Context, opts solver.Options, x0 []float64) (*SolveResult, error) {
	if s.nConstrained == 0 {
		return nil, fmt.Errorf("fem: solving without boundary conditions; system is singular")
	}
	pt := s.DOFPartition()
	if opts.Partition.P == 0 {
		opts.Partition = pt
	}
	// The solve span parents the GMRES restart-cycle spans, so a trace
	// nests stage → fem.solve → gmres.cycle.
	ctx, span := obs.StartSpan(ctx, obs.SpanFEMSolve)
	var serr error
	defer func() { span.End(serr) }()
	span.SetAttr("dofs", s.NumDOF)
	pcStart := time.Now()
	pc, pcHit, err := s.pcCache.BlockJacobiILU0(s.K, opts.Partition)
	if err != nil {
		serr = fmt.Errorf("fem: preconditioner setup: %w", err)
		return nil, serr
	}
	pcTime := time.Since(pcStart)
	span.SetAttr("pc_setup_ms", float64(pcTime)/float64(time.Millisecond))
	span.SetAttr("pc_cache_hit", pcHit)
	start := time.Now()
	var (
		u     []float64
		stats solver.Stats
	)
	if x0 != nil {
		u, stats, err = solver.GMRESWarmContext(ctx, s.K, s.F, x0, pc, opts)
		span.SetAttr("warm_start", true)
		span.SetAttr("entry_rel_residual", stats.EntryResRel)
	} else {
		u, stats, err = solver.GMRESContext(ctx, s.K, s.F, nil, pc, opts)
	}
	span.SetAttr("iterations", stats.Iterations)
	span.SetAttr("converged", stats.Converged)
	span.SetAttr("final_rel_residual", stats.FinalResRel)
	if err != nil {
		serr = fmt.Errorf("fem: solve: %w", err)
		return nil, serr
	}
	return &SolveResult{
		U:           u,
		NodeU:       s.NodeDisplacements(u),
		Stats:       stats,
		SolveTime:   time.Since(start),
		PCSetupTime: pcTime,
		PCCacheHit:  pcHit,
	}, nil
}

// PCCacheStats reports the cumulative preconditioner-cache hit and miss
// counts of the solves on this Operator, by every System sharing it; a
// miss is a factorization.
func (o *Operator) PCCacheStats() (hits, misses uint64) {
	return o.pcCache.Stats()
}

// DisplacementField rasterizes the solved nodal displacements onto a
// dense backward-warp field on grid g: each voxel inside the mesh gets
// the shape-function interpolation of its element's nodal
// displacements; voxels outside the mesh get zero. This is the field
// used to resample preoperative data into the intraoperative
// configuration (the paper's ~0.5 s resampling step).
func (s *System) DisplacementField(nodeU []geom.Vec3, g volume.Grid) *volume.Field {
	f := volume.NewField(g)
	rasterize(s.Mesh, g, func(i, j, k int, nodes [4]int32, w [4]float64) {
		var d geom.Vec3
		for a := 0; a < 4; a++ {
			d = d.Add(nodeU[nodes[a]].Scale(w[a]))
		}
		f.Set(i, j, k, d)
	})
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
