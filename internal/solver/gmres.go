package solver

import (
	"context"
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Options configures the Krylov solvers.
type Options struct {
	// Tol is the stopping rule's bound, in the solution's units (mm for
	// the FEM system): the solve stops once the last stepDelay
	// iterations together moved the iterate by at most Tol as an RMS
	// per unknown, ‖x_k − x_{k−stepDelay}‖₂/√n, read from the
	// iteration's own coefficients (see stepWindow; CG bounds the step
	// by Σ|α_j|·‖p_j‖). Every solve also stops at a relative residual
	// of residualFloor, where the iterate is exact to working precision.
	// Zero means DefaultOptions().Tol; a negative, NaN or Inf Tol is an
	// error.
	//
	// The step tracks the error only under a preconditioner that makes
	// the iterates settle. On the 18,480-equation preconditioner study
	// at the default Tol, the production factor stops within 0.01 mm
	// nodal RMS of a converged reference, 16 ILU(0) blocks stop 0.0093
	// mm off, and an unpreconditioned solve stops 0.54 mm off, the step
	// there reading 0.0074× the error (EXPERIMENTS "The preconditioner
	// study's tolerance").
	Tol float64
	// MaxIter bounds the total number of iterations.
	MaxIter int
	// Restart is the GMRES restart length m; zero or negative means
	// DefaultOptions().Restart.
	Restart int
	// Partition controls the parallel matrix-vector product; a zero
	// value runs serially. Any other value must cover exactly the
	// system's rows (par.Partition.Validate), or the solve is an error.
	Partition par.Partition
	// RecordHistory stores the relative residual after every iteration
	// in Stats.History (for convergence-curve analysis).
	RecordHistory bool
	// StoragePrecision selects the precision of the solver's
	// bandwidth-bound storage (matrix values, Krylov basis). The zero
	// value is PrecisionFloat64; PrecisionFloat32 enables the
	// mixed-precision GMRES path, which demotes storage to float32
	// while keeping all accumulation in float64. CG ignores this
	// setting. See Precision.
	StoragePrecision Precision
}

// parallel reports whether a solve of n rows runs its products on
// o.Partition: a zero partition means serial, any other one must cover
// exactly the n rows.
func (o Options) parallel(n int) (bool, error) {
	pt := o.Partition
	if pt.N == 0 && pt.P == 0 && len(pt.Starts) == 0 {
		return false, nil
	}
	if err := pt.Validate(n); err != nil {
		return false, fmt.Errorf("solver: %w", err)
	}
	return pt.P > 1, nil
}

// stepBound returns the stopping rule's bound on a step's 2-norm over
// n unknowns, tol·√n, and √n, where tol is Tol, or DefaultOptions' for
// a zero Tol. A negative, NaN or Inf Tol is an error: no step compares
// below it, and the solve would burn MaxIter and report no error.
func (o Options) stepBound(n int) (limit, rootN float64, err error) {
	tol := o.Tol
	if math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		return 0, 0, fmt.Errorf("solver: tolerance %g is not a finite non-negative step", tol)
	}
	if numeric.Zero(tol) {
		tol = DefaultOptions().Tol
	}
	rootN = math.Sqrt(float64(n))
	return tol * rootN, rootN, nil
}

// DefaultOptions is the paper's PETSc solver, GMRES(30), stopped when
// four iterations together move the FEM displacement by at most
// 0.0029 mm RMS per unknown: a 0.005 mm nodal RMS (three unknowns a
// node), where the model error in tissue is 0.5 mm (EXPERIMENTS, "Solve
// to the accuracy the data has").
func DefaultOptions() Options {
	return Options{Tol: 0.0029, MaxIter: 2000, Restart: 30}
}

// Stats reports solver behaviour for performance analysis.
type Stats struct {
	Iterations  int
	MatVecs     int
	PCApplies   int
	DotProducts int
	AXPYs       int
	// Converged reports that the stopping rule held (see Options.Tol),
	// or that the residual reached residualFloor. It bounds the error
	// only as far as the step does: under a weak preconditioner, or
	// none, a solve reports Converged far from the answer (0.54 mm
	// unpreconditioned on the preconditioner study; see Options.Tol).
	Converged bool
	// StepRMS is the stopping rule's last estimate: the bound on
	// ‖x_k − x_{k−stepDelay}‖₂/√n, in the solution's units.
	StepRMS float64
	// FinalResRel is the preconditioned residual of the returned
	// iterate relative to ‖M⁻¹b‖ (the Givens estimate for GMRES, M⁻¹
	// applied to the recurrence's residual for CG): telemetry, not the
	// stopping rule.
	FinalResRel  float64
	InitialResid float64
	// EntryResRel is the relative preconditioned residual of the initial
	// iterate (1.0 for a zero start; ≪ 1 for a good warm start) — the
	// quantity that makes the warm-start benefit measurable.
	EntryResRel float64
	// WarmStarted reports that the solve was seeded with an initial
	// iterate (a non-nil x0), whichever entry point ran it.
	WarmStarted bool
	// Restarts counts GMRES restart cycles beyond the first (0 when the
	// solve converged within one cycle).
	Restarts int
	// StagnatedCycles counts restart cycles that reduced the relative
	// residual by less than 1% — the signature of a preconditioner that
	// has stopped helping.
	StagnatedCycles int
	// Diverged reports that some cycle ended with a larger relative
	// residual than it entered with.
	Diverged bool
	// History holds the per-iteration relative residual when
	// Options.RecordHistory is set.
	History []float64
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("iters=%d matvecs=%d converged=%v step=%.3g rel=%.3g",
		s.Iterations, s.MatVecs, s.Converged, s.StepRMS, s.FinalResRel)
}

// residualFloor is the relative residual at which an iterate is exact
// to working precision (2⁻⁴⁶, 64 ulps of 1). Below it the coefficients
// of further basis vectors are rounding noise, and once the Krylov
// space is exhausted (a system of fewer unknowns than the iterations)
// they grow without bound, so every solve stops there whatever its
// step reads.
const residualFloor = 0x1p-46

// stepDelay is the stopping rule's window in iterations: the solve
// stops once x_k − x_{k−stepDelay} is within Tol (see Options.Tol). A
// single step undersells the error of a slowly converging iteration;
// at the stop, four read 1.1–2.9× the true error on the FEM system
// (EXPERIMENTS, "Solve to the accuracy the data has").
const stepDelay = 4

// stepWindow is GMRES's stopping-rule state across restart cycles. A
// cycle's iterate is x_k = x_0 + V_k y_k with V_k orthonormal, so
// inside one cycle ‖x_k − x_j‖₂ = ‖y_k − y_j‖₂, the shorter vector
// zero-padded: the rule reads coefficients, never an O(n) vector.
type stepWindow struct {
	// ring holds the cycle's coefficient vectors, y_k at slot
	// k mod stepDelay, restart floats a slot.
	ring    []float64
	restart int
	// k is the cycle iteration ring last recorded.
	k int
	// tail[t] bounds ‖x_0 − x_{−t}‖₂ for the current cycle's start x_0
	// and the iterate t iterations before it. It is zero before the
	// solve's first iterate: until stepDelay iterates exist, the window
	// starts at the solve's x_0.
	tail [stepDelay]float64
	// last is the latest step, the bound on ‖x_k − x_{k−stepDelay}‖₂.
	last float64
}

func newStepWindow(restart int) stepWindow {
	return stepWindow{ring: make([]float64, stepDelay*restart), restart: restart}
}

// slot is the ring's storage of y_k (its first k floats).
func (sw *stepWindow) slot(k int) []float64 {
	return sw.ring[(k%stepDelay)*sw.restart:][:sw.restart]
}

// diffNorm returns ‖a − b‖₂, b zero-padded to a's length.
func diffNorm(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		if i < len(b) {
			v -= b[i]
		}
		s += v * v
	}
	return math.Sqrt(s)
}

// advance back-substitutes the cycle's coefficients after its k-th
// iteration (R y = g over the first k rows of the rotated Hessenberg h)
// into y, and returns the step: a bound on ‖x_k − x_{k−stepDelay}‖₂,
// exact when the window lies inside the cycle. A window that reaches
// back past the cycle's start adds the previous cycles' tail (triangle
// inequality). k = 1 opens a cycle and first folds the previous one's
// steps into the tail. The step reads only h, g and y, which have the
// same bits at any rank count, and costs O(k²) with no O(n) pass.
//
//lint:hotpath
//lint:noescape
func (sw *stepWindow) advance(h [][]float64, g, y []float64, k int) float64 {
	if k == 1 && sw.k > 0 {
		// The previous cycle ended at its iterate kc, the new x_0. Going
		// down in t, tail[t-kc] is still the previous cycle's.
		kc := sw.k
		yc := sw.slot(kc)[:kc]
		for t := stepDelay - 1; t >= 1; t-- {
			if t <= kc {
				sw.tail[t] = diffNorm(yc, sw.slot(kc - t)[:kc-t])
			} else {
				sw.tail[t] = diffNorm(yc, nil) + sw.tail[t-kc]
			}
		}
	}
	for i := k - 1; i >= 0; i-- {
		yi := g[i]
		for j := i + 1; j < k; j++ {
			yi -= h[i][j] * y[j]
		}
		if numeric.NonZero(h[i][i]) {
			yi /= h[i][i]
		}
		y[i] = yi
	}
	step := 0.0
	if k >= stepDelay {
		step = diffNorm(y[:k], sw.slot(k - stepDelay)[:k-stepDelay])
	} else {
		step = diffNorm(y[:k], nil) + sw.tail[stepDelay-k]
	}
	copy(sw.slot(k), y[:k])
	sw.k, sw.last = k, step
	return step
}

// reduceChunk is the element count of one partial sum. Every float64
// inner product of the package — dot, norm2, the Gram-Schmidt of
// gmresCycle — is the sum, in index order, of per-chunk partials that
// axpyDot accumulates in four fixed lanes: chunk length and lane count
// are constants and the worker count never enters a sum, so a reduction
// has the same bits however many goroutines computed its partials.
// (dot32, the float32-basis product of gmresCycle32, keeps its one
// accumulator.)
const reduceChunk = 2048

// axpyDot is the fused Gram-Schmidt kernel on the element range
// [lo, hi): it subtracts h·vi from zw (skipped when vi is nil) and
// returns that range's share of zw·vn. vn may be zw itself, which gives
// the squared norm of the updated range.
//
//lint:hotpath
//lint:noescape
func axpyDot(h float64, vi, zw, vn []float64, lo, hi int) float64 {
	zw = zw[lo:hi]
	vn = vn[lo:hi][:len(zw)]
	var s0, s1, s2, s3 float64
	j := 0
	if vi == nil {
		for ; j+4 <= len(zw); j += 4 {
			z, n := zw[j:j+4:j+4], vn[j:j+4:j+4]
			s0 += z[0] * n[0]
			s1 += z[1] * n[1]
			s2 += z[2] * n[2]
			s3 += z[3] * n[3]
		}
	} else {
		vi = vi[lo:hi][:len(zw)]
		// Each element is stored before vn is read, so vn == zw sees the
		// updated value.
		for ; j+4 <= len(zw); j += 4 {
			z, n, v := zw[j:j+4:j+4], vn[j:j+4:j+4], vi[j:j+4:j+4]
			z[0] -= h * v[0]
			s0 += z[0] * n[0]
			z[1] -= h * v[1]
			s1 += z[1] * n[1]
			z[2] -= h * v[2]
			s2 += z[2] * n[2]
			z[3] -= h * v[3]
			s3 += z[3] * n[3]
		}
		for k := j; k < len(zw); k++ {
			zw[k] -= h * vi[k]
		}
	}
	for ; j < len(zw); j++ {
		s0 += zw[j] * vn[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot returns the inner product in the package's one reduction order
// (see reduceChunk); accumulation-class, never demoted to float32.
func dot(a, b []float64) float64 {
	s := 0.0
	for lo := 0; lo < len(a); lo += reduceChunk {
		s += axpyDot(0, nil, a, b, lo, min(lo+reduceChunk, len(a)))
	}
	return s
}

// norm2 returns the Euclidean norm, in dot's order.
func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// gmresWorkspace holds every buffer one GMRES solve reuses across
// restart cycles, so the hot cycle kernel performs no allocation at
// all: the Krylov basis v and Hessenberg h are carved out of flat
// backing arrays, and hist caps at the restart length. The cycle kernel
// indexes the rotation and basis buffers in lockstep up to the Krylov
// dimension.
//
// The four func values are the cycle's O(n) sweeps. newGMRESWorkspace
// builds them once per solve over one fan-out that hands every rank a
// contiguous range of reduceChunk-long chunks, so the cycle kernel calls
// them without allocating and a one-rank solve runs the same chunks in
// the same order on the calling goroutine.
type gmresWorkspace struct {
	r, z, w, zw []float64
	v, h        [][]float64
	cs, sn, g   []float64
	y           []float64
	// hist collects this cycle's per-iteration relative residuals; the
	// caller copies them into Stats.History between cycles.
	hist []float64
	// win is the stopping rule's coefficient window.
	win stepWindow

	// step is the fused Gram-Schmidt pass: zw -= h·vi (skipped when vi
	// is nil), returning zw·vn as the index-ordered sum of the chunk
	// partials axpyDot computed — dot's bits for any rank count.
	step func(h float64, vi, zw, vn []float64) float64
	// residual sets r = b - r; scale sets dst = a·src; update adds
	// y[i]·v[i] to x for every i, one chunk of x at a time.
	residual func(b, r []float64)
	scale    func(dst, src []float64, a float64)
	update   func(x, y []float64, v [][]float64)
}

// newGMRESWorkspace allocates the buffers for an n-dimensional solve
// with the given restart length, its sweeps fanned out over ranks
// goroutines.
func newGMRESWorkspace(n, restart, ranks int) *gmresWorkspace {
	ws := &gmresWorkspace{
		r:    make([]float64, n),
		z:    make([]float64, n),
		w:    make([]float64, n),
		zw:   make([]float64, n),
		v:    make([][]float64, restart+1),
		h:    make([][]float64, restart+1),
		cs:   make([]float64, restart),
		sn:   make([]float64, restart),
		g:    make([]float64, restart+1),
		y:    make([]float64, restart),
		hist: make([]float64, 0, restart),
		win:  newStepWindow(restart),
	}
	vBack := make([]float64, (restart+1)*n)
	for i := range ws.v {
		ws.v[i] = vBack[i*n : (i+1)*n]
	}
	hBack := make([]float64, (restart+1)*restart)
	for i := range ws.h {
		ws.h[i] = hBack[i*restart : (i+1)*restart]
	}

	// No more ranks than chunks: a system of one chunk runs serially.
	partials := make([]float64, (n+reduceChunk-1)/reduceChunk)
	chunks := par.Even(len(partials), max(1, min(ranks, len(partials))))
	fan := func(body func(c, lo, hi int)) {
		rank := func(r int) {
			first, last := chunks.Range(r)
			for c := first; c < last; c++ {
				body(c, c*reduceChunk, min((c+1)*reduceChunk, n))
			}
		}
		if chunks.P == 1 {
			rank(0)
			return
		}
		chunks.ForEachRank(rank)
	}
	ws.step = func(h float64, vi, zw, vn []float64) float64 {
		fan(func(c, lo, hi int) { partials[c] = axpyDot(h, vi, zw, vn, lo, hi) })
		s := 0.0
		for _, p := range partials {
			s += p
		}
		return s
	}
	ws.residual = func(b, r []float64) {
		fan(func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				r[j] = b[j] - r[j]
			}
		})
	}
	ws.scale = func(dst, src []float64, a float64) {
		fan(func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] = src[j] * a
			}
		})
	}
	ws.update = func(x, y []float64, v [][]float64) {
		fan(func(_, lo, hi int) {
			xs := x[lo:hi]
			for i, yi := range y {
				vi := v[i][lo:hi][:len(xs)]
				for j := range xs {
					xs[j] += yi * vi[j]
				}
			}
		})
	}
	return ws
}

// gmresCycle runs one restart cycle of left-preconditioned GMRES(m):
// residual, Arnoldi with modified Gram-Schmidt, Givens rotations, the
// triangular solve after every iteration for the stopping rule (see
// stepWindow), and the update of x in place. It returns converged once
// the step is within limit (Tol·√n) while the cycle's residual is below
// its entry value, or once the residual reaches residualFloor or the
// Krylov space breaks down happily. The residual guard matters for
// nonsymmetric systems only: a cycle whose space holds no descent
// direction has zero coefficients, and so a zero step, without having
// converged. It is the allocation-free
// inner kernel of the solver — all state lives in ws, the O(n) sweeps
// over it are ws's func values, counters go to stats, and the caller
// owns the per-cycle span instrumentation and context checks.
//
// matvec, like ws's sweeps, is passed as a func value rather than
// (matrix, partition) so the parallel path's fan-out closure is
// allocated once by the caller instead of being inlined — and
// re-allocated — here.
//
// b and x may not alias: the triangular-solve epilogue updates x in
// place while the next cycle re-reads b to form the residual.
//
//lint:hotpath
//lint:noescape
func gmresCycle(matvec func(in, out []float64), b, x []float64, m Preconditioner,
	ws *gmresWorkspace, restart, maxIter int, limit, beta0 float64, recordHistory bool,
	stats *Stats) (converged bool, entryRel, exitRel float64) {
	// The reference norm divides every residual below; a zero or
	// non-finite beta0 would make both convergence tests silently false
	// (NaN compares false) and burn maxIter without progress.
	if !(beta0 > 0) || math.IsInf(beta0, 0) {
		stats.Diverged = true
		return false, math.Inf(1), math.Inf(1)
	}
	r, z, w, zw := ws.r, ws.z, ws.w, ws.zw
	v, h := ws.v, ws.h
	cs, sn, g, y := ws.cs, ws.sn, ws.g, ws.y
	ws.hist = ws.hist[:0]

	// r = M^{-1} (b - A x)
	matvec(x, r)
	stats.MatVecs++
	ws.residual(b, r)
	stats.AXPYs++
	m.Apply(r, z)
	stats.PCApplies++
	beta := norm2(z)
	stats.DotProducts++
	entryRel = beta / beta0
	if numeric.Zero(stats.InitialResid) {
		stats.InitialResid = beta
		stats.EntryResRel = entryRel
	}
	if entryRel <= residualFloor {
		stats.Converged = true
		stats.FinalResRel = entryRel
		return true, entryRel, entryRel
	}
	ws.scale(v[0], z, 1/beta)
	for i := range g {
		g[i] = 0
	}
	g[0] = beta

	k := 0
	for ; k < restart && stats.Iterations < maxIter; k++ {
		stats.Iterations++
		// w = M^{-1} A v_k
		matvec(v[k], w)
		stats.MatVecs++
		m.Apply(w, zw)
		stats.PCApplies++
		// Modified Gram-Schmidt, one fused pass per basis vector: pass i
		// subtracts the projection on v[i-1] and returns the coefficient
		// on v[i]; the last returns the squared norm of what is left.
		h[0][k] = ws.step(0, nil, zw, v[0])
		for i := 0; i < k; i++ {
			h[i+1][k] = ws.step(h[i][k], v[i], zw, v[i+1])
		}
		h[k+1][k] = math.Sqrt(ws.step(h[k][k], v[k], zw, zw))
		stats.DotProducts += k + 2
		stats.AXPYs += k + 1
		breakdown := !(h[k+1][k] > 1e-300)
		if !breakdown {
			ws.scale(v[k+1], zw, 1/h[k+1][k])
		} else {
			// Happy breakdown: exact solution in current subspace.
			for j := range v[k+1] {
				v[k+1][j] = 0
			}
		}
		// Apply accumulated Givens rotations to the new column.
		for i := 0; i < k; i++ {
			t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
			h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
			h[i][k] = t
		}
		// New rotation to zero h[k+1][k].
		denom := math.Hypot(h[k][k], h[k+1][k])
		if numeric.Zero(denom) {
			cs[k], sn[k] = 1, 0
		} else {
			cs[k] = h[k][k] / denom
			sn[k] = h[k+1][k] / denom
		}
		h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
		h[k+1][k] = 0
		g[k+1] = -sn[k] * g[k]
		g[k] = cs[k] * g[k]

		step := ws.win.advance(h, g, y, k+1)
		res := math.Abs(g[k+1])
		if recordHistory {
			ws.hist = append(ws.hist, res/beta0)
		}
		if res <= residualFloor*beta0 || breakdown || step <= limit && res < beta {
			k++
			converged = true
			break
		}
	}
	// advance left y holding the coefficients of the last iterate.
	ws.update(x, y[:k], v)
	stats.AXPYs += k
	exitRel = math.Abs(g[k]) / beta0
	if converged {
		stats.Converged = true
		stats.FinalResRel = exitRel
	}
	return converged, entryRel, exitRel
}

// GMRESContext solves A x = b with left-preconditioned restarted
// GMRES(m), starting from x0 (nil means zero). It returns the solution
// and iteration statistics. The iteration stops when the last four
// iterates are within Tol of one another (see Options.Tol), or MaxIter
// is reached (Converged reports which). The context is checked once per
// restart cycle: a cancelled or deadline-expired context aborts within
// one cycle, returning the best iterate so far together with ctx.Err().
func GMRESContext(ctx context.Context, a *sparse.CSR, b, x0 []float64, m Preconditioner, opts Options) ([]float64, Stats, error) {
	return gmres(ctx, a, b, x0, m, opts)
}

// publish states the solve's statistics, once, as attributes of the
// span enclosing the solve (fem.solve under the pipeline) — the one
// record of why a solve took the iterations it did, in a trace and a
// flight dump alike. A no-op without a span on the context.
func (s *Stats) publish(span *obs.Span) {
	if span == nil {
		return
	}
	span.SetAttr("iterations", s.Iterations)
	span.SetAttr("matvecs", s.MatVecs)
	span.SetAttr("converged", s.Converged)
	span.SetAttr("step_rms", s.StepRMS)
	span.SetAttr("entry_rel_residual", s.EntryResRel)
	span.SetAttr("final_rel_residual", s.FinalResRel)
	span.SetAttr("restarts", s.Restarts)
	span.SetAttr("stagnated_cycles", s.StagnatedCycles)
	span.SetAttr("diverged", s.Diverged)
	span.SetAttr("warm_started", s.WarmStarted)
}

// gmres is the shared body of GMRESContext and GMRESWarmContext. Every
// exit past the argument checks publishes the statistics it returns.
func gmres(ctx context.Context, a *sparse.CSR, b, x0 []float64, m Preconditioner, opts Options) (_ []float64, stats Stats, _ error) {
	n := a.N
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("solver: rhs length %d != n %d", len(b), n)
	}
	if m == nil {
		m = IdentityPC{}
	}
	restart := opts.Restart
	if restart <= 0 {
		restart = DefaultOptions().Restart
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 2 * n
	}
	limit, rootN, err := opts.stepBound(n)
	if err != nil {
		return nil, Stats{}, err
	}
	parallel, err := opts.parallel(n)
	if err != nil {
		return nil, Stats{}, err
	}

	x := make([]float64, n)
	if x0 != nil {
		if len(x0) != n {
			return nil, Stats{}, fmt.Errorf("solver: x0 length %d != n %d", len(x0), n)
		}
		copy(x, x0)
	}

	// The mixed-precision mode demotes the matrix values once per solve
	// and swaps in the float32-basis cycle kernel; everything around the
	// cycle (restart policy, convergence accounting, telemetry) is
	// shared with the float64 path.
	mixed := opts.StoragePrecision == PrecisionFloat32
	var (
		ws   *gmresWorkspace
		ws32 *gmresWorkspace32
		a32  *sparse.CSR32
	)
	if mixed {
		ws32 = newGMRESWorkspace32(n, restart)
		a32 = sparse.NewCSR32(a)
	} else {
		ranks := 1
		if parallel {
			ranks = opts.Partition.P
		}
		ws = newGMRESWorkspace(n, restart, ranks)
	}
	matvec := func(in, out []float64) {
		switch {
		case mixed && parallel:
			a32.MulVecPar(opts.Partition, in, out)
		case mixed:
			a32.MulVec(in, out)
		case parallel:
			a.MulVecPar(opts.Partition, in, out)
		default:
			a.MulVec(in, out)
		}
	}
	// rbuf/zbuf alias the active workspace's residual scratch for the
	// shared pre- and post-loop residual evaluations, win its stopping
	// rule.
	var rbuf, zbuf []float64
	var win *stepWindow
	if mixed {
		rbuf, zbuf, win = ws32.r, ws32.z, &ws32.win
	} else {
		rbuf, zbuf, win = ws.r, ws.z, &ws.win
	}

	stats.WarmStarted = x0 != nil
	defer func() { stats.publish(obs.SpanFromContext(ctx)) }()

	// The residuals telemetry reports are relative to ||M^{-1} b|| (the
	// PETSc convention), so a warm start's EntryResRel shows how good
	// its seed was. The stopping rule reads no residual: it is in the
	// solution's units and the same for a cold and a warm start.
	m.Apply(b, zbuf)
	stats.PCApplies++
	bNorm := norm2(zbuf)
	stats.DotProducts++
	if numeric.Zero(bNorm) {
		// b = 0: solution is x = 0 regardless of x0.
		stats.Converged = true
		return make([]float64, n), stats, nil
	}
	if !numeric.Finite(bNorm) {
		// A NaN/Inf right-hand side would poison every relative residual:
		// the convergence comparisons go silently false and the solve
		// burns MaxIter doing nothing. Fail loudly instead.
		stats.FinalResRel = math.NaN()
		return nil, stats, fmt.Errorf("solver: preconditioned rhs norm is not finite (%g)", bNorm)
	}

	beta0 := bNorm

	cycle := 0
	for stats.Iterations < maxIter {
		// One context check per restart cycle: cheap relative to the m
		// inner iterations, yet bounds the abort latency to one cycle.
		if err := ctx.Err(); err != nil {
			stats.FinalResRel = math.NaN()
			return x, stats, err
		}
		// Each restart cycle runs in a closure holding one trace span
		// (nil tracer: no-ops), so the span End can be deferred per cycle
		// and convergence traces line up with the per-stage span
		// timeline. The numerical work itself lives in gmresCycle, which
		// is span-free and allocation-free (//lint:noescape).
		converged := func() bool {
			_, span := obs.StartSpan(ctx, obs.SpanGMRESCycle)
			defer span.End(nil)
			span.SetAttr("cycle", cycle)
			histStart := len(stats.History)
			itersBefore := stats.Iterations
			var done bool
			var entryRel, exitRel float64
			if mixed {
				done, entryRel, exitRel = gmresCycle32(matvec, b, x, m,
					ws32, restart, maxIter, limit, beta0, opts.RecordHistory, &stats)
			} else {
				done, entryRel, exitRel = gmresCycle(matvec, b, x, m,
					ws, restart, maxIter, limit, beta0, opts.RecordHistory, &stats)
			}
			stats.StepRMS = win.last / rootN
			// A restart is a cycle that iterated after a previous cycle
			// already had.
			if itersBefore > 0 && stats.Iterations > itersBefore {
				stats.Restarts++
			}
			if opts.RecordHistory {
				if mixed {
					stats.History = append(stats.History, ws32.hist...)
				} else {
					stats.History = append(stats.History, ws.hist...)
				}
			}
			span.SetAttr("entry_rel_residual", entryRel)
			if opts.RecordHistory && len(stats.History) > histStart {
				// The residual trace of this cycle, exported so tooling can
				// reconstruct convergence curves from the span stream alone.
				span.SetAttr("residual_history",
					append([]float64(nil), stats.History[histStart:]...))
			}
			if done {
				span.SetAttr("converged", true)
				return true
			}
			// A cycle that barely moved the residual means the
			// preconditioned Krylov space has stagnated; one that raised it
			// means divergence. Both are flight-recorder material.
			if exitRel > entryRel {
				stats.Diverged = true
				span.SetAttr("diverged", true)
			}
			if exitRel > 0.99*entryRel {
				stats.StagnatedCycles++
				span.SetAttr("stagnated", true)
			}
			span.SetAttr("iterations_total", stats.Iterations)
			span.SetAttr("exit_rel_residual", exitRel)
			return false
		}()
		if converged {
			return x, stats, nil
		}
		cycle++
	}
	// Out of iterations: report the true residual of the last iterate.
	matvec(x, rbuf)
	stats.MatVecs++
	for i := range rbuf {
		rbuf[i] = b[i] - rbuf[i]
	}
	m.Apply(rbuf, zbuf)
	stats.PCApplies++
	stats.FinalResRel = norm2(zbuf) / beta0
	return x, stats, nil
}

// GMRESWarmContext is the warm-start entry point of the incremental
// re-solve path: it solves A x = b exactly like GMRESContext but seeds
// the iteration with x0, a previous solution of a nearby system (the
// displacement field of the last intraoperative solve). The stopping
// rule is the cold solve's, in the solution's units, so a seed closer
// to the solution takes fewer iterations (one, for a seed already
// within Tol) and shows as a small Stats.EntryResRel and as
// Stats.WarmStarted, as any seeded solve does. A nil
// or wrongly sized seed is an error — callers without a previous
// solution should use GMRESContext.
func GMRESWarmContext(ctx context.Context, a *sparse.CSR, b, x0 []float64, m Preconditioner, opts Options) ([]float64, Stats, error) {
	if len(x0) != a.N {
		return nil, Stats{}, fmt.Errorf("solver: warm-start seed length %d != n %d", len(x0), a.N)
	}
	return gmres(ctx, a, b, x0, m, opts)
}

// CGContext solves the symmetric positive definite system A x = b with
// preconditioned conjugate gradients, provided for comparison with
// GMRES (the elastic stiffness matrix is SPD after boundary-condition
// elimination, so CG applies; the paper follows PETSc's robust default
// of GMRES). It stops on GMRES's rule (see Options.Tol), bounding
// ‖x_k − x_{k−stepDelay}‖₂ by the window's Σ|α_j|·‖p_j‖, or at
// residualFloor. Its Stats are GMRESContext's: EntryResRel, History and
// FinalResRel are preconditioned residuals relative to ‖M⁻¹b‖ (one
// preconditioner apply more than CG itself needs, and one at the exit),
// WarmStarted for a non-nil x0, and every exit past the argument checks
// publishes them on the enclosing span. The context is checked every
// iteration; on expiry the best iterate so far is returned together
// with ctx.Err().
func CGContext(ctx context.Context, a *sparse.CSR, b, x0 []float64, m Preconditioner, opts Options) ([]float64, Stats, error) {
	n := a.N
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("solver: rhs length %d != n %d", len(b), n)
	}
	if m == nil {
		m = IdentityPC{}
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 2 * n
	}
	limit, rootN, err := opts.stepBound(n)
	if err != nil {
		return nil, Stats{}, err
	}
	parallel, err := opts.parallel(n)
	if err != nil {
		return nil, Stats{}, err
	}
	matvec := func(in, out []float64) {
		if parallel {
			a.MulVecPar(opts.Partition, in, out)
		} else {
			a.MulVec(in, out)
		}
	}

	x := make([]float64, n)
	if x0 != nil {
		if len(x0) != n {
			return nil, Stats{}, fmt.Errorf("solver: x0 length %d != n %d", len(x0), n)
		}
		copy(x, x0)
	}
	stats := Stats{WarmStarted: x0 != nil}
	defer func() { stats.publish(obs.SpanFromContext(ctx)) }()
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	// ‖M⁻¹b‖ is the reference of EntryResRel, History and FinalResRel,
	// as in GMRES; ap is free until the first iteration.
	m.Apply(b, ap)
	stats.PCApplies++
	bNorm := norm2(ap)
	stats.DotProducts++
	// relRes is z's norm against ‖M⁻¹b‖, where z = M⁻¹r.
	relRes := func() float64 {
		stats.DotProducts++
		if numeric.Zero(bNorm) {
			return math.Inf(1)
		}
		return norm2(z) / bNorm
	}
	matvec(x, r)
	stats.MatVecs++
	for i := range r {
		r[i] = b[i] - r[i]
	}
	res0 := norm2(r)
	stats.InitialResid = res0
	stats.DotProducts++
	if numeric.Zero(res0) {
		stats.Converged = true
		return x, stats, nil
	}
	m.Apply(r, z)
	stats.PCApplies++
	stats.EntryResRel = relRes()
	copy(p, z)
	rz := dot(r, z)
	stats.DotProducts++
	// steps[j mod stepDelay] is |α_j|·‖p_j‖, iteration j's step; the
	// slots not yet written keep the window at x_0.
	var steps [stepDelay]float64

	for stats.Iterations < maxIter {
		if err := ctx.Err(); err != nil {
			stats.FinalResRel = math.NaN()
			return x, stats, err
		}
		stats.Iterations++
		matvec(p, ap)
		stats.MatVecs++
		pap := dot(p, ap)
		stats.DotProducts++
		if pap <= 0 {
			return x, stats, fmt.Errorf("solver: CG detected non-SPD matrix (pAp=%g)", pap)
		}
		alpha := rz / pap
		steps[stats.Iterations%stepDelay] = math.Abs(alpha) * norm2(p)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		stats.AXPYs += 2
		res := norm2(r)
		stats.DotProducts += 2
		step := 0.0
		for _, s := range steps {
			step += s
		}
		stats.StepRMS = step / rootN
		m.Apply(r, z)
		stats.PCApplies++
		if opts.RecordHistory {
			stats.History = append(stats.History, relRes())
		}
		if res <= residualFloor*res0 || step <= limit {
			stats.Converged = true
			stats.FinalResRel = relRes()
			return x, stats, nil
		}
		rzNew := dot(r, z)
		stats.DotProducts++
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		stats.AXPYs++
	}
	matvec(x, r)
	stats.MatVecs++
	for i := range r {
		r[i] = b[i] - r[i]
	}
	m.Apply(r, z)
	stats.PCApplies++
	stats.FinalResRel = relRes()
	return x, stats, nil
}
