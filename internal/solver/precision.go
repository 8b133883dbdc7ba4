package solver

import (
	"math"

	"repro/internal/numeric"
)

// Precision selects the storage precision of the solver's
// bandwidth-bound arrays — the CSR value array and the Krylov basis.
// Accumulation (dot products, norms, Givens rotations, residual and
// iterate updates) always runs in float64 regardless of this setting.
type Precision int

const (
	// PrecisionFloat64 stores everything in float64 (the default).
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 demotes matrix values and Krylov basis vectors to
	// float32 storage while accumulating in float64: roughly 2/3 of the
	// SpMV byte traffic and half the basis traffic per iteration, at the
	// cost of a basis rounded to float32 — safe while the stopping
	// rule's Tol sits well above float32 epsilon times the solution.
	PrecisionFloat32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	if p == PrecisionFloat32 {
		return "float32"
	}
	return "float64"
}

// widenInto promotes the float32-stored vector src into the float64
// scratch dst, the widening boundary every mixed-precision consumer
// (matvec input, reference checks) goes through. Widening loses
// nothing.
func widenInto(dst []float64, src []float32) {
	for i, s := range src {
		dst[i] = float64(s)
	}
}

// narrowScaled writes dst[i] = float32(src[i] * scale): the sanctioned
// narrowing of a freshly orthogonalized float64 vector into the
// float32 Krylov basis. This is the only place the GMRES kernel is
// allowed to round accumulation-class data to storage precision:
// convert only here.
func narrowScaled(dst []float32, src []float64, scale float64) {
	for i, s := range src {
		dst[i] = float32(s * scale)
	}
}

// dot32 computes the inner product of a float64 vector with a
// float32-stored vector, widening each stored element before the
// multiply so the sum carries full float64 precision.
func dot32(a []float64, b []float32) float64 {
	s := 0.0
	b = b[:len(a)]
	for i := range a {
		s += a[i] * float64(b[i])
	}
	return s
}

// gmresWorkspace32 is the mixed-precision counterpart of
// gmresWorkspace: the Krylov basis v32 is stored in float32 (halving
// the basis byte traffic of every Gram-Schmidt pass), while the
// residual/scratch vectors, Hessenberg column, rotations, and
// triangular-solve buffers stay float64 — they are accumulation-class
// and are never demoted.
type gmresWorkspace32 struct {
	r, z, w, zw []float64
	v32         [][]float32
	h           [][]float64
	cs, sn, g   []float64
	y           []float64
	// hist collects this cycle's per-iteration relative residuals; the
	// caller copies them into Stats.History between cycles.
	hist []float64
	// win is the stopping rule's coefficient window, gmresWorkspace's.
	win stepWindow
}

// newGMRESWorkspace32 allocates the mixed-precision buffers for an
// n-dimensional solve with the given restart length; the float32 basis
// is carved out of one flat backing array exactly like the float64
// workspace.
func newGMRESWorkspace32(n, restart int) *gmresWorkspace32 {
	ws := &gmresWorkspace32{
		r:    make([]float64, n),
		z:    make([]float64, n),
		w:    make([]float64, n),
		zw:   make([]float64, n),
		v32:  make([][]float32, restart+1),
		h:    make([][]float64, restart+1),
		cs:   make([]float64, restart),
		sn:   make([]float64, restart),
		g:    make([]float64, restart+1),
		y:    make([]float64, restart),
		hist: make([]float64, 0, restart),
		win:  newStepWindow(restart),
	}
	vBack := make([]float32, (restart+1)*n)
	for i := range ws.v32 {
		ws.v32[i] = vBack[i*n : (i+1)*n]
	}
	hBack := make([]float64, (restart+1)*restart)
	for i := range ws.h {
		ws.h[i] = hBack[i*restart : (i+1)*restart]
	}
	return ws
}

// gmresCycle32 runs one restart cycle of left-preconditioned GMRES(m)
// with a float32-stored Krylov basis and float64 accumulation: the
// mixed-precision twin of gmresCycle. Every read of the basis widens
// through widenInto/dot32 before arithmetic; every write narrows
// through the narrowScaled convert site. The Arnoldi recurrence,
// Givens rotations, triangular solve and stopping rule (stepWindow,
// which reads only float64 coefficients) are otherwise identical to
// the float64 kernel, so iteration counts track the baseline closely
// as long as the target tolerance stays well above float32 epsilon
// (enforced by the parity tests).
//
// b and x may not alias (see gmresCycle).
//
//lint:hotpath
//lint:noescape
func gmresCycle32(matvec func(in, out []float64), b, x []float64, m Preconditioner,
	ws *gmresWorkspace32, restart, maxIter int, limit, beta0 float64, recordHistory bool,
	stats *Stats) (converged bool, entryRel, exitRel float64) {
	// See gmresCycle: a zero or non-finite reference norm would make the
	// residual tests silently false.
	if !(beta0 > 0) || math.IsInf(beta0, 0) {
		stats.Diverged = true
		return false, math.Inf(1), math.Inf(1)
	}
	r, z, w, zw := ws.r, ws.z, ws.w, ws.zw
	v, h := ws.v32, ws.h
	cs, sn, g, y := ws.cs, ws.sn, ws.g, ws.y
	ws.hist = ws.hist[:0]

	// r = M^{-1} (b - A x)
	matvec(x, r)
	stats.MatVecs++
	for i := range r {
		r[i] = b[i] - r[i]
	}
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
	narrowScaled(v[0], z, 1/beta)
	for i := range g {
		g[i] = 0
	}
	g[0] = beta

	k := 0
	for ; k < restart && stats.Iterations < maxIter; k++ {
		stats.Iterations++
		// w = M^{-1} A v_k, widening the stored basis vector into the z
		// scratch first (z's cycle-entry value was consumed into v[0]).
		widenInto(z, v[k])
		matvec(z, w)
		stats.MatVecs++
		m.Apply(w, zw)
		stats.PCApplies++
		// Modified Gram-Schmidt with per-element widening of the basis.
		for i := 0; i <= k; i++ {
			h[i][k] = dot32(zw, v[i])
			stats.DotProducts++
			hv := h[i][k]
			vi := v[i][:len(zw)]
			for j := range zw {
				zw[j] -= hv * float64(vi[j])
			}
			stats.AXPYs++
		}
		h[k+1][k] = norm2(zw)
		stats.DotProducts++
		breakdown := !(h[k+1][k] > 1e-300)
		if !breakdown {
			narrowScaled(v[k+1], zw, 1/h[k+1][k])
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
	// Update x with the last iterate's coefficients, which advance left
	// in y, widening each basis element.
	for i := 0; i < k; i++ {
		yi := y[i]
		vi := v[i][:len(x)]
		for j := range x {
			x[j] += yi * float64(vi[j])
		}
		stats.AXPYs++
	}
	exitRel = math.Abs(g[k]) / beta0
	if converged {
		stats.Converged = true
		stats.FinalResRel = exitRel
	}
	return converged, entryRel, exitRel
}
