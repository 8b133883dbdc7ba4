// Package core orchestrates the paper's intraoperative registration
// pipeline (its Figure 1): rigid MI registration of the intraoperative
// scan to the preoperative frame, k-NN tissue classification with the
// spatially varying localization model, active-surface correspondence
// detection between the two brain surfaces, biomechanical FEM
// simulation of the implied volumetric deformation, and resampling of
// the preoperative data into the intraoperative configuration. Each
// stage is timed, producing the timeline of the paper's Figure 6, and
// match-quality metrics quantify what the paper shows visually in its
// Figures 4 and 5.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/classify"
	"repro/internal/edt"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/register"
	"repro/internal/solver"
	"repro/internal/surface"
	"repro/internal/transform"
	"repro/internal/volume"
)

// Config parameterizes the pipeline.
type Config struct {
	// MeshCellSize is the tetrahedral mesh resolution in voxels.
	MeshCellSize int
	// Materials is the biomechanical constitutive model.
	Materials fem.Table
	// Ranks is the paper's CPU count: it sets the rank partition that
	// assembly, the block-Jacobi blocks and the solve run on, and
	// their numbers depend on it. The voxel and vertex passes of a scan,
	// k-NN classification among them, use every core (GOMAXPROCS), and
	// no result depends on how many.
	Ranks int
	// Register configures the rigid MI registration.
	Register register.Options
	// Surface configures the active surface evolution.
	Surface surface.Options
	// Solver configures the GMRES solve; its Tol is in mm (see
	// solver.Options.Tol). Its Partition must stay zero: the solve runs
	// on the operator's partition, which Ranks states.
	Solver solver.Options
	// KNN, PrototypesPerClass and EDTSaturation configure the tissue
	// classification stage.
	KNN                int
	PrototypesPerClass int
	EDTSaturation      float64
	// UseBCCMesh selects the body-centered-cubic mesher (the paper's
	// proposed "more regular connectivity" lattice) instead of the Kuhn
	// marching-tetrahedra split.
	UseBCCMesh bool
	// SkipRigid bypasses the rigid registration (for scan pairs already
	// in one frame, or when benchmarking later stages in isolation).
	SkipRigid bool
	Seed      int64
	// ArtifactStore, when non-nil, caches the content-addressed outputs
	// of the pure preoperative stages (EDT localization channels, mesh
	// generation, surface relaxation, assembly, interpolation table)
	// keyed on the input artifacts and Config fields each is called
	// with, so sessions sharing a preop volume skip those stages and
	// share, read-only, the one value the store keeps of each output —
	// the eliminated FEM operator with its preconditioner factors among
	// them. The store may be shared across sessions and, through its
	// disk tier, processes; it is read by cached only, never by stage
	// bodies, and is ignored by Validate.
	ArtifactStore *artifact.Store
}

// Validate reports configuration errors instead of silently patching
// them: out-of-range MeshCellSize, Ranks, KNN, PrototypesPerClass or
// EDTSaturation, a negative, NaN or Inf Solver.Tol (zero is the
// solver's default), or a Solver.Partition (a second, unchecked way to
// state Ranks: one that does not cover the system preconditions a
// fragment of it and "converges" on the rigid answer). NewSession
// calls it.
func (c Config) Validate() error {
	var errs []error
	if c.MeshCellSize < 1 {
		errs = append(errs, fmt.Errorf("MeshCellSize %d out of range (want >= 1 voxel)", c.MeshCellSize))
	}
	if c.Ranks < 1 {
		errs = append(errs, fmt.Errorf("Ranks %d out of range (want >= 1)", c.Ranks))
	}
	if c.KNN < 1 {
		errs = append(errs, fmt.Errorf("KNN %d out of range (want >= 1)", c.KNN))
	}
	if c.PrototypesPerClass < 1 {
		errs = append(errs, fmt.Errorf("PrototypesPerClass %d out of range (want >= 1)", c.PrototypesPerClass))
	}
	if c.EDTSaturation <= 0 {
		errs = append(errs, fmt.Errorf("EDTSaturation %g out of range (want > 0 mm)", c.EDTSaturation))
	}
	if tol := c.Solver.Tol; math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		errs = append(errs, fmt.Errorf("Solver.Tol %g out of range (want a finite step >= 0 mm)", tol))
	}
	if pt := c.Solver.Partition; pt.N != 0 || pt.P != 0 || len(pt.Starts) != 0 {
		errs = append(errs, errors.New("Solver.Partition must be zero (the partition is Ranks' to state)"))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("core: invalid config: %w", errors.Join(errs...))
}

// DefaultConfig returns the configuration used throughout the
// reproduction's experiments.
func DefaultConfig() Config {
	return Config{
		MeshCellSize:       2,
		Materials:          fem.HomogeneousBrain(),
		Ranks:              4,
		Register:           register.DefaultOptions(),
		Surface:            surface.DefaultOptions(),
		Solver:             solver.DefaultOptions(),
		KNN:                5,
		PrototypesPerClass: 30,
		EDTSaturation:      10,
		Seed:               1,
	}
}

// StageTiming records the wall-clock time of one pipeline stage — one
// bar of the paper's Figure 6 timeline.
type StageTiming struct {
	Name    string
	Elapsed time.Duration
}

// Result is the output of one intraoperative registration.
type Result struct {
	// Rigid is the estimated scanner-frame alignment.
	Rigid transform.Rigid
	// RigidDiag reports the MI registration diagnostics.
	RigidDiag register.Result
	// IntraopLabels is the intraoperative tissue classification.
	IntraopLabels *volume.Labels
	// Surface is the active-surface correspondence result.
	Surface *surface.Result
	// SolveStats reports the FEM solver behaviour.
	SolveStats solver.Stats
	// NodeDisplacements is the solved volumetric deformation at the
	// mesh nodes (forward: preop position -> intraop position).
	NodeDisplacements []geom.Vec3
	// Mesh is the tetrahedral model of the (aligned) preoperative head.
	// It is read-only: with an ArtifactStore it is the store's resident
	// value, shared by every session and Result on this anatomy.
	Mesh *mesh.Mesh
	// Backward is the inverse of the dense forward displacement field,
	// in the backward-warp convention: warping the aligned preop scan
	// with it produces the simulated match to the intraoperative scan
	// (the paper's Figure 4c).
	Backward *volume.Field
	// Warped is the aligned preoperative scan deformed into the
	// intraoperative configuration.
	Warped *volume.Scalar
	// AlignedPreop is the rigidly aligned preoperative scan (the
	// rigid-only baseline the paper compares against).
	AlignedPreop *volume.Scalar
	// Timings is the per-stage timeline (Figure 6).
	Timings []StageTiming

	// Incremental marks a result produced by the streaming update path
	// (Session.Update): the preop-only stages (rigid alignment, EDT
	// localization channels, mesh generation, surface relaxation) were
	// reused from the session baseline instead of recomputed.
	Incremental bool
	// Update reports the incremental-path diagnostics; nil on cold runs.
	Update *IncrementalStats

	// Degraded marks a rigid-only fallback result: the context deadline
	// expired after the surface stage, so the biomechanical refinement
	// was abandoned and Warped is just the rigidly aligned preoperative
	// scan — the paper's clinical fallback when the time budget runs
	// out. NodeDisplacements and Backward are nil.
	Degraded bool
	// DegradedReason says which stage the deadline interrupted.
	DegradedReason string

	// Match-quality metrics inside the brain mask (Figure 4d analogue):
	// mean absolute intensity difference to the intraoperative scan
	// after rigid alignment only, and after the biomechanical match.
	RigidMeanAbsDiff float64
	MatchMeanAbsDiff float64
}

// TotalTime returns the summed stage time.
func (r *Result) TotalTime() time.Duration {
	var t time.Duration
	for _, s := range r.Timings {
		t += s.Elapsed
	}
	return t
}

// Timeline renders the Figure 6 analogue as text.
func (r *Result) Timeline() string {
	var b strings.Builder
	b.WriteString("Timeline of intraoperative image processing\n")
	for _, s := range r.Timings {
		fmt.Fprintf(&b, "  %-28s %10.3fs\n", s.Name, s.Elapsed.Seconds())
	}
	fmt.Fprintf(&b, "  %-28s %10.3fs\n", "TOTAL", r.TotalTime().Seconds())
	if r.Degraded {
		fmt.Fprintf(&b, "  DEGRADED: rigid-only result (%s)\n", r.DegradedReason)
	}
	return b.String()
}

// baseline is what one scan leaves for the next: the statistical model,
// the artifacts derived from the preoperative preparation alone (a full
// registration computes them, an update pins them), the constrained FEM
// system with its cached preconditioner, and the last displacement
// solution. A Session keeps the baseline of its last good scan.
type baseline struct {
	// cl is nil until the first scan samples the model's prototypes;
	// later scans refresh a copy of it from the new image and leave it
	// as it is.
	cl           *classify.Classifier
	rigid        transform.Rigid
	alignedPreop *volume.Scalar
	edt          edtChannels
	mesh         *mesh.Mesh
	// relaxedSurf is the discretization-relaxed preoperative brain
	// surface; every scan evolves it onto the new intraoperative
	// boundary, which keeps the vertex-to-node map — and therefore the
	// Dirichlet row set — identical across updates.
	relaxedSurf *mesh.TriMesh
	// sys is this session's fork of preop-assemble's shared operator:
	// every scan patches its right-hand side in place.
	sys *fem.System
	// interp rasterizes a solution onto the session grid.
	interp *fem.InterpTable
	// prevU seeds the next warm-started solve; non-nil marks a baseline
	// an update can build on. coldIterations is the cold solve's
	// iteration count, the reference for IterationsSaved.
	prevU          []float64
	coldIterations int
}

// scan is the state of one run of the stage sequence.
type scan struct {
	// preop and preopLabels are read by a full registration only.
	preop       *volume.Scalar
	preopLabels *volume.Labels
	intraop     *volume.Scalar

	res *Result

	// With prevU set on entry the preoperative artifacts are pinned and
	// the sequence runs only the stages that depend on the new image.
	baseline

	alignedLabels *volume.Labels
	intraLabels   *volume.Labels
	// phiBrain is the unsmoothed signed distance to the classified
	// intraoperative brain boundary: the surface stage computes it, the
	// match metrics' boundary band reads it again.
	phiBrain *volume.Scalar
	surfRes  *surface.Result
	solveRes *fem.SolveResult
}

// runScan validates one scan's inputs and executes the stage sequence
// under a pipeline.run (full registration) or pipeline.update (pinned
// baseline) span. With a tracer on the context (see package obs) the
// run becomes a span hierarchy: run → per-stage spans → the nested
// solver/assembly/classification spans.
func (s *Session) runScan(ctx context.Context, sc *scan) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	warm := sc.prevU != nil
	if sc.intraop == nil || !warm && (sc.preop == nil || sc.preopLabels == nil) {
		return nil, fmt.Errorf("core: nil input volume")
	}
	if err := checkVolume("intraoperative scan", sc.intraop.Grid, len(sc.intraop.Data)); err != nil {
		return nil, err
	}
	if !warm {
		if err := checkPreop(sc.preop, sc.preopLabels); err != nil {
			return nil, err
		}
	} else if !sc.intraop.Grid.SameShape(sc.alignedPreop.Grid) {
		return nil, fmt.Errorf("core: update scan grid %v differs from session grid %v",
			sc.intraop.Grid, sc.alignedPreop.Grid)
	}
	spanName := obs.SpanPipelineRun
	sc.res = &Result{Incremental: warm}
	if warm {
		spanName = obs.SpanPipelineUpdate
		sc.res.Update = &IncrementalStats{}
	}
	ctx, runSpan := obs.StartSpan(ctx, spanName)
	var runErr error
	defer func() { runSpan.End(runErr) }()
	res, err := s.finish(ctx, s.runStages(ctx, sc, warm), sc)
	if res != nil {
		runSpan.SetAttr("degraded", res.Degraded)
	}
	runErr = err
	return res, err
}

// checkVolume rejects a volume the stage workers would index out of
// range: an invalid grid, an axis of one sample (trilinear sampling
// reads two along every axis), or a data slice that is not the grid's
// voxel count. Volumes arrive from outside the program (a scanner, a
// service client), so this is an error at the boundary, never a panic
// inside a worker goroutine.
func checkVolume(what string, g volume.Grid, n int) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("core: %s: %w", what, err)
	}
	if min(g.NX, g.NY, g.NZ) < 2 {
		return fmt.Errorf("core: %s: %dx%dx%d grid has an axis of one sample, want at least 2", what, g.NX, g.NY, g.NZ)
	}
	if g.Len() != n {
		return fmt.Errorf("core: %s: %d values on a %dx%dx%d grid", what, n, g.NX, g.NY, g.NZ)
	}
	return nil
}

// checkPreop validates the preoperative scan and its segmentation, and
// that they share one shape.
func checkPreop(preop *volume.Scalar, labels *volume.Labels) error {
	if err := checkVolume("preoperative scan", preop.Grid, len(preop.Data)); err != nil {
		return err
	}
	if err := checkVolume("preoperative labels", labels.Grid, len(labels.Data)); err != nil {
		return err
	}
	if !preop.Grid.SameShape(labels.Grid) {
		return fmt.Errorf("core: preop scan %v and labels %v differ in shape", preop.Grid, labels.Grid)
	}
	return nil
}

// newStageRunner returns the stage executor: it runs one pipeline stage
// through obs.Stage — which times it once, for Result.Timings and for
// whatever sinks the context carries (trace, flight recorder, the
// service's job timeline and histograms) — and attributes any failure
// (including context cancellation checked on entry) to the stage via
// *StageError. The stage body receives a derived context so work it
// starts (solver restart cycles, classification batches, assembly)
// nests under the stage span.
func newStageRunner(ctx context.Context, res *Result) func(name string, fn func(ctx context.Context) error) error {
	return func(name string, fn func(ctx context.Context) error) error {
		if err := ctx.Err(); err != nil {
			return &StageError{Stage: name, Err: err}
		}
		// The span carries the raw stage error; the StageError wrap is
		// for callers.
		elapsed, err := obs.Stage(ctx, name, fn)
		res.Timings = append(res.Timings, StageTiming{Name: name, Elapsed: elapsed})
		if err != nil {
			return &StageError{Stage: name, Err: err}
		}
		return nil
	}
}

// runStages is the stage sequence of the paper's Figure 1, in the six
// timed stages of its Figure 6. A full registration runs all of it; an
// update (warm) runs the same sequence with the preoperative artifacts
// pinned from the baseline, which leaves the four stages that depend on
// the new image — rigid alignment is reused because the head is fixed
// in the scanner frame for the duration of the case. Each preop-pure
// stage goes through cached, keyed on exactly the handle and key struct
// it is called with.
func (s *Session) runStages(ctx context.Context, sc *scan, warm bool) error {
	cfg, store := s.cfg, s.cfg.ArtifactStore
	stage := newStageRunner(ctx, sc.res)
	// Handles of the preoperative artifacts later pure stages key on.
	var (
		labels *handle[*volume.Labels]
		meshA  *handle[meshed]
	)
	if !warm {
		if cfg.SkipRigid && !sc.preop.Grid.SameShape(sc.intraop.Grid) {
			// Even without rigid alignment the downstream stages need the
			// preop data on the intraop grid.
			return fmt.Errorf("core: SkipRigid requires matching grids, got %v vs %v",
				sc.preop.Grid, sc.intraop.Grid)
		}
		if err := stage(StageRigid, func(ctx context.Context) error {
			return s.stageRigidAlign(ctx, sc)
		}); err != nil {
			return err
		}
		labels = source(labelsCodec, sc.alignedLabels)
	}
	if err := stage(StageClassify, func(ctx context.Context) error {
		if !warm {
			ch, err := cached(ctx, store, "preop-edt", preopEDT, labels,
				edtKey{Saturation: cfg.EDTSaturation}, edtCodec)
			if err != nil {
				return err
			}
			sc.edt = ch.val
		}
		return s.stageClassify(ctx, sc)
	}); err != nil {
		return err
	}
	if !warm {
		if err := stage(StageMesh, func(ctx context.Context) (err error) {
			meshA, err = cached(ctx, store, "preop-mesh", preopMesh, labels,
				meshKey{CellSize: cfg.MeshCellSize, BCC: cfg.UseBCCMesh}, meshedCodec)
			if err == nil {
				sc.mesh = meshA.val.Mesh
			}
			return err
		}); err != nil {
			return err
		}
	}
	if err := stage(StageSurface, func(ctx context.Context) error {
		if warm {
			return s.stageSurfaceDisplace(ctx, sc, sc.intraopPhi())
		}
		// The scan's φ does not depend on the relaxed surface: compute it
		// beside preop-relax. A panic computing it comes back over the
		// channel and is raised again here, on the scan's goroutine.
		phi := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					phi <- p
				}
			}()
			phi <- sc.intraopPhi()
		}()
		relaxed, err := cached(ctx, store, "preop-relax", preopRelax, join(labels, meshA),
			cfg.Surface, triMeshCodec)
		v := <-phi
		phiIntra, ok := v.(*volume.Scalar)
		if !ok {
			panic(v)
		}
		if err != nil {
			return err
		}
		sc.relaxedSurf = relaxed.val
		return s.stageSurfaceDisplace(ctx, sc, phiIntra)
	}); err != nil {
		return err
	}
	if err := stage(StageSolve, func(ctx context.Context) error {
		if !warm {
			op, err := cached(ctx, store, "preop-assemble", preopAssemble, meshA,
				assembleKey{Materials: cfg.Materials, Ranks: cfg.Ranks}, operatorCodec)
			if err != nil {
				return err
			}
			sc.sys = op.val.NewSystem(sc.mesh)
		}
		return s.stageSolve(ctx, sc, warm)
	}); err != nil {
		return err
	}
	return stage(StageResample, func(ctx context.Context) error {
		if !warm {
			tab, err := cached(ctx, store, "preop-interp", preopInterp, meshA, sc.intraop.Grid, interpCodec)
			if err != nil {
				return err
			}
			sc.interp = tab.val
		}
		stageResample(sc)
		return nil
	})
}

// stageRigidAlign aligns the preoperative data to the intraoperative
// frame by MI maximization (or passes it through under SkipRigid).
func (s *Session) stageRigidAlign(ctx context.Context, sc *scan) error {
	if s.cfg.SkipRigid {
		sc.rigid = transform.Identity(sc.intraop.Grid.Center())
		sc.alignedPreop = sc.preop
		sc.alignedLabels = sc.preopLabels
		return nil
	}
	init := register.CenterOfMassInit(sc.intraop, sc.preop, s.cfg.Register.Threshold)
	diag, err := register.AlignContext(ctx, sc.intraop, sc.preop, init, s.cfg.Register)
	if err != nil {
		return err
	}
	sc.rigid = diag.Transform
	sc.res.RigidDiag = diag
	sc.alignedPreop = transform.ResampleScalar(sc.preop, diag.Transform, sc.intraop.Grid)
	sc.alignedLabels = transform.ResampleLabels(sc.preopLabels, diag.Transform, sc.intraop.Grid)
	return nil
}

// stageClassify labels the intraoperative scan: k-NN over intensity
// plus the localization channels. The first scan samples the
// statistical model's prototypes; later scans refresh the recorded
// prototypes from the new image (the paper's automatic model update) —
// never re-sampled, the first scan owns the prototype geometry. The
// refresh, and its outlier rejection, work on a copy for this scan
// alone: a prototype rejected where this scan's tissue changed is
// still the session's for the next scan.
func (s *Session) stageClassify(ctx context.Context, sc *scan) error {
	cfg := s.cfg
	channels := append([]*volume.Scalar{sc.intraop}, sc.edt[:]...)
	cl := sc.cl
	if cl == nil {
		// First scan: build the statistical model. Prototype features
		// must come from the same modality as the scan being
		// classified: read intensity from the aligned preop scan at the
		// prototype voxels, localization channels as-is.
		protoChannels := append([]*volume.Scalar{sc.alignedPreop}, sc.edt[:]...)
		protos, err := classify.SamplePrototypesContext(ctx, sc.alignedLabels, protoChannels,
			cfg.PrototypesPerClass, cfg.Seed)
		if err != nil {
			return err
		}
		cl = &classify.Classifier{
			K:          cfg.KNN,
			Prototypes: protos,
			Weights:    []float64{1, 8, 8, 8},
		}
		sc.cl = cl
	} else {
		// Prototypes whose tissue changed between scans (resection, shift
		// gap) are rejected as per-class outliers, for this scan.
		cl = cl.Clone()
		if err := cl.RefreshFeaturesRobustContext(ctx, channels, 4, 5); err != nil {
			return err
		}
	}
	var err error
	sc.intraLabels, err = cl.ClassifyKDContext(ctx, channels)
	return err
}

// intraopPhi sets the scan's signed distance to its classified brain
// boundary and returns the smoothed copy the surface evolves on.
func (sc *scan) intraopPhi() *volume.Scalar {
	sc.phiBrain = edt.SignedOfSet(sc.intraLabels, volume.IsBrainTissue, 0)
	return sc.phiBrain.SmoothGaussian(1.0)
}

// stageSurfaceDisplace deforms the relaxed preoperative brain surface
// onto the classified intraoperative brain, along phiIntra (see
// intraopPhi): these displacements are the physical surface
// correspondences driving the FEM solve.
func (s *Session) stageSurfaceDisplace(ctx context.Context, sc *scan, phiIntra *volume.Scalar) error {
	sr, err := surface.EvolveContext(ctx, sc.relaxedSurf, surface.SignedDistanceForce{Phi: phiIntra}, s.cfg.Surface)
	if err != nil {
		return err
	}
	sc.surfRes = sr
	return nil
}

// stageSolve runs the biomechanical simulation: it patches the
// right-hand side of the session's system for the surface displacements
// of this scan — from zero on a cold registration, from the previous
// scan's on an update — and solves with the operator's shared
// preconditioner factors, from zero or, warm, from the previous
// displacement field. Assembly work is not the solve's to state: the
// fem.assemble span of the assembly that ran states it, and a store hit
// ran none.
func (s *Session) stageSolve(ctx context.Context, sc *scan, warm bool) error {
	cfg, sys, upd := s.cfg, sc.sys, sc.res.Update
	bc := sc.surfRes.BoundaryConditions()
	var sr *fem.SolveResult
	patched, err := sys.PatchDirichlet(ctx, bc)
	if err == nil && warm {
		upd.DOFsPatched = patched
		sr, err = sys.SolveWarmContext(ctx, sc.prevU, cfg.Solver)
	} else if err == nil {
		sr, err = sys.SolveContext(ctx, cfg.Solver)
	}
	if err != nil {
		return err
	}
	sc.solveRes = sr
	sc.prevU = sr.U
	if !warm {
		sc.coldIterations = sr.Stats.Iterations
		return nil
	}
	upd.PCCacheHit = sr.PCCacheHit
	upd.WarmStarted = sr.Stats.WarmStarted
	if sc.coldIterations > sr.Stats.Iterations {
		upd.IterationsSaved = sc.coldIterations - sr.Stats.Iterations
	}
	return nil
}

// stageResample resamples the preoperative data through the computed
// volumetric deformation (the paper's ~0.5 s display step),
// rasterizing the solution through the interpolation table as a dense
// gather.
func stageResample(sc *scan) {
	res, nodeU := sc.res, sc.solveRes.NodeU
	res.Backward = sc.interp.Apply(nodeU).Invert(4)
	res.Warped = res.Backward.WarpScalar(sc.alignedPreop)
}

// finish is the tail shared by the success, degraded and error paths:
// copy the run's artifacts into the Result, apply the clinical degraded
// fallback when the deadline expired during the solve or resample
// stage, and compute the match metrics on success.
func (s *Session) finish(ctx context.Context, err error, sc *scan) (*Result, error) {
	res := sc.res
	res.Rigid = sc.rigid
	res.AlignedPreop = sc.alignedPreop
	res.IntraopLabels = sc.intraLabels
	res.Mesh = sc.mesh
	res.Surface = sc.surfRes
	if sc.solveRes != nil {
		res.SolveStats = sc.solveRes.Stats
		res.NodeDisplacements = sc.solveRes.NodeU
	}
	if err != nil {
		var se *StageError
		if errors.As(err, &se) && (se.Stage == StageSolve || se.Stage == StageResample) &&
			degrade(ctx, err, res, sc.intraop, sc.alignedPreop, sc.phiBrain) {
			return res, nil
		}
		return nil, err
	}
	matchMetrics(res, sc.intraop, sc.alignedPreop, sc.phiBrain)
	return res, nil
}

// matchMetrics computes the match-quality metrics (Figure 4d analogue).
// The paper judges the match "by the very small intensity differences
// at the boundary of the simulated deformed brain and the air gap
// inside the skull": accordingly the metric is computed over a band
// around the intraoperative brain boundary, where residual differences
// are attributable to misregistration rather than to resected tissue
// (whose intensity no deformation can reproduce).
func matchMetrics(res *Result, intraop, alignedPreop, phiBrain *volume.Scalar) {
	band := brainBoundaryBand(phiBrain)
	if d, err := alignedPreop.AbsDiff(intraop); err == nil {
		res.RigidMeanAbsDiff = d.ComputeStats(band).Mean
	}
	if d, err := res.Warped.AbsDiff(intraop); err == nil {
		res.MatchMeanAbsDiff = d.ComputeStats(band).Mean
	}
}

// brainBoundaryBand masks the voxels within a few millimetres of the
// intraoperative brain boundary, where the paper judges match quality;
// phi is the scan's signed distance to that boundary.
func brainBoundaryBand(phi *volume.Scalar) []bool {
	band := make([]bool, len(phi.Data))
	const bandWidth = 3.0 // mm
	for i, v := range phi.Data {
		if v >= -bandWidth && v <= bandWidth {
			band[i] = true
		}
	}
	return band
}

// degrade implements the clinical fallback: when the context *deadline*
// (not an explicit cancellation) expires after the surface stage — i.e.
// during the biomechanical solve or the resampling — the scan is not
// failed; the rigid-only alignment is delivered instead, marked as
// Degraded. It reports whether the fallback applied, filling res in
// place when it did.
func degrade(ctx context.Context, err error, res *Result, intraop, alignedPreop, phiBrain *volume.Scalar) bool {
	if !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StageError
	stageName := "unknown stage"
	if errors.As(err, &se) {
		stageName = se.Stage
	}
	res.Degraded = true
	res.DegradedReason = fmt.Sprintf("deadline expired during %s", stageName)
	// The record of the decision, on the run span (ctx is its context):
	// which stage the deadline interrupted.
	obs.SpanFromContext(ctx).SetAttr("degraded_stage", stageName)
	// The delivered image is the rigid alignment; both match metrics
	// describe it, so downstream comparisons correctly see no
	// biomechanical improvement.
	res.Warped = alignedPreop
	res.NodeDisplacements = nil
	res.Backward = nil
	matchMetrics(res, intraop, alignedPreop, phiBrain)
	return true
}
