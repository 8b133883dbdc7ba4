package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/volume"
)

// ErrNoBaseline reports an Update against a session that has no
// completed full registration to build on.
var ErrNoBaseline = errors.New("core: no baseline registration; run Register before Update")

// IncrementalStats reports what the incremental update path reused and
// saved relative to a cold registration.
type IncrementalStats struct {
	// DOFsPatched is the number of Dirichlet DOFs whose prescribed
	// displacement actually changed since the previous solve.
	DOFsPatched int
	// PCCacheHit reports that the solve did not factorize: the operator's
	// preconditioner was built by an earlier solve (always, on an update).
	PCCacheHit bool
	// WarmStarted reports that the solve was seeded with the previous
	// displacement field.
	WarmStarted bool
	// IterationsSaved is the iteration count saved relative to the
	// session's baseline cold solve (0 when the update needed as many).
	IterationsSaved int
}

// Session manages the succession of intraoperative scans acquired over
// the course of one surgery ("several volumetric MRI scans were carried
// out during surgery ... other scans were acquired as the surgeon
// checked the progress of tumor resection"). The statistical tissue
// model is built on the first scan; for every later scan the recorded
// prototype voxel locations update it automatically, exactly as the
// paper describes.
// Incremental updates: Register runs the full stage sequence and the
// session keeps its baseline (statistical model, rigid alignment,
// localization channels, mesh, relaxed surface, constrained FEM system,
// displacement field); Update then runs the same sequence for a newly
// streamed scan with that baseline pinned — model refresh, one surface
// evolution, a Dirichlet right-hand-side patch and a warm-started
// solve — at a fraction of the cold cost.
type Session struct {
	cfg         Config
	preop       *volume.Scalar
	preopLabels *volume.Labels
	// base is the baseline of the last good (neither failed nor
	// degraded) scan; nil before the first.
	base  *baseline
	scans int
}

// NewSession prepares a surgical session from the preoperative data,
// rejecting an invalid configuration (see Config.Validate) or
// malformed preoperative volumes.
func NewSession(cfg Config, preop *volume.Scalar, preopLabels *volume.Labels) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if preop == nil || preopLabels == nil {
		return nil, fmt.Errorf("core: nil preoperative data")
	}
	if err := checkPreop(preop, preopLabels); err != nil {
		return nil, err
	}
	return &Session{
		cfg:         cfg,
		preop:       preop,
		preopLabels: preopLabels,
	}, nil
}

// Register registers one newly acquired intraoperative scan against
// the preoperative preparation with the full pipeline and returns the
// registration result. The first call builds the tissue statistical
// model; later calls refresh it from the new image at the recorded
// prototype locations. The context bounds the run: cancellation or
// deadline expiry aborts the current stage promptly (within one GMRES
// restart cycle during the solve) and returns the context error wrapped
// in a *StageError identifying the interrupted stage. One exception
// implements the paper's clinical fallback: if the *deadline* expires
// after the surface stage has completed, the rigid-only result is
// returned, marked Degraded, instead of an error — the surgeon still
// gets the rigid alignment on time. A degraded or failed scan advances
// neither the statistical model nor the incremental-update baseline.
// Register builds the preoperative model on goroutines beside the scan
// and joins them before it returns, whatever the outcome.
// Sessions are not safe for concurrent use; the service layer
// serializes scans per session.
func (s *Session) Register(ctx context.Context, intraop *volume.Scalar) (*Result, error) {
	var from baseline
	if s.base != nil {
		// Only the statistical model carries into a full registration.
		from.cl = s.base.cl
	}
	return s.run(ctx, intraop, from)
}

// Update incrementally re-registers a newly streamed intraoperative
// scan against the baseline established by the last successful
// Register: the preop-only stages (rigid alignment, localization
// channels, mesh generation, surface relaxation) are reused, the
// Dirichlet right-hand side is patched for the boundary displacements
// that changed, the factorized preconditioner is kept, and GMRES is
// warm-started from the previous displacement field. k-NN runs only on
// the voxels within three voxels of the last good scan's brain
// boundary, the rest keeping that scan's labels; if a voxel at the
// band's outer edge changes brain membership, the whole grid is
// classified instead. Returns
// ErrNoBaseline before the first successful Register. Accuracy matches
// a cold Register of the same scan up to the solver's stopping rule:
// both solves stop once four iterates lie within Solver.Tol mm RMS per
// unknown of one another (0.005 mm nodal RMS at the default). The
// result carries the reuse diagnostics in Result.Update. Context
// semantics match Register.
func (s *Session) Update(ctx context.Context, intraop *volume.Scalar) (*Result, error) {
	if s.base == nil {
		return nil, ErrNoBaseline
	}
	return s.run(ctx, intraop, *s.base)
}

// run runs one scan from the given baseline and adopts the baseline it
// leaves only on a non-degraded success. No scan changes the session's
// statistical model once it exists (the classification stage refreshes
// a copy), so a scan that fails or degrades leaves it untouched.
func (s *Session) run(ctx context.Context, intraop *volume.Scalar, from baseline) (*Result, error) {
	sc := &scan{preop: s.preop, preopLabels: s.preopLabels, intraop: intraop, baseline: from}
	res, err := s.runScan(ctx, sc)
	if err != nil {
		return nil, err
	}
	if !res.Degraded {
		base := sc.baseline
		s.base = &base
	}
	s.scans++
	return res, nil
}

// HasBaseline reports whether a completed full registration is
// available for Update to build on.
func (s *Session) HasBaseline() bool { return s.base != nil }

// ScanCount returns the number of scans delivered so far (degraded ones
// included). The session keeps no Result: each belongs to its caller.
func (s *Session) ScanCount() int { return s.scans }

// PrototypeCount returns the size of the shared statistical model (0
// before the first scan).
func (s *Session) PrototypeCount() int {
	if s.base == nil {
		return 0
	}
	return len(s.base.cl.Prototypes)
}
