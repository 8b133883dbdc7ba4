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
	// PCCacheHit reports that this solve did not factorize: the
	// Operator's preconditioner was built by an earlier solve on it.
	PCCacheHit bool
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
// preconditioner on the Operator's partition (whatever opts names),
// factorized by whichever solve asks first, then GMRES from x0 (nil =
// zero start).
func (s *System) solve(ctx context.Context, opts solver.Options, x0 []float64) (_ *SolveResult, err error) {
	if s.nConstrained == 0 {
		return nil, fmt.Errorf("fem: solving without boundary conditions; system is singular")
	}
	opts.Partition = s.DOFPartition()
	// The solve span parents the GMRES restart-cycle spans, so a trace
	// nests stage → fem.solve → gmres.cycle; GMRES publishes its
	// statistics on it, fem only what the solver cannot know.
	ctx, span := obs.StartSpan(ctx, obs.SpanFEMSolve)
	defer func() { span.End(err) }()
	span.SetAttr("dofs", s.NumDOF)
	pcStart := time.Now()
	pc, built, err := s.preconditioner()
	if err != nil {
		return nil, fmt.Errorf("fem: preconditioner setup: %w", err)
	}
	span.SetAttr("pc_setup_ms", float64(time.Since(pcStart))/float64(time.Millisecond))
	span.SetAttr("pc_cache_hit", !built)
	var (
		u     []float64
		stats solver.Stats
	)
	if x0 != nil {
		u, stats, err = solver.GMRESWarmContext(ctx, s.K, s.F, x0, pc, opts)
	} else {
		u, stats, err = solver.GMRESContext(ctx, s.K, s.F, nil, pc, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("fem: solve: %w", err)
	}
	return &SolveResult{U: u, NodeU: s.NodeDisplacements(u), Stats: stats, PCCacheHit: !built}, nil
}

// preconditioner returns the Operator's block-Jacobi ILU(0) factor, one
// block per rank of DOFPartition(). The first call factorizes and
// reports built; calls arriving meanwhile wait for it, and every later
// one shares its factor (or its error: K is immutable).
func (o *Operator) preconditioner() (pc *solver.BlockJacobiPC, built bool, err error) {
	o.pcOnce.Do(func() {
		o.pc, o.pcErr = solver.NewBlockJacobiILU0(o.K, o.DOFPartition())
		built = true
	})
	return o.pc, built, o.pcErr
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
