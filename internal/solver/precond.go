// Package solver implements the Krylov solvers and preconditioners the
// paper obtains from PETSc: restarted GMRES with block Jacobi
// preconditioning (one block per CPU partition, factorized with
// ILU(0)), plus conjugate gradients and simpler preconditioners for
// comparison. Matrix-vector products, the preconditioner's blocks and
// the O(n) vector sweeps of GMRES are parallelized across the rank
// partition with goroutines, mirroring the paper's distributed solve.
package solver

import (
	"fmt"

	"repro/internal/numeric"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Preconditioner applies z = M^{-1} r for a fixed matrix approximation
// M. Implementations must be safe for sequential reuse; Apply is called
// once per Krylov iteration.
type Preconditioner interface {
	Apply(r, z []float64)
	Name() string
}

// IdentityPC is the trivial preconditioner M = I.
type IdentityPC struct{}

// Apply copies r into z.
func (IdentityPC) Apply(r, z []float64) { copy(z, r) }

// Name implements Preconditioner.
func (IdentityPC) Name() string { return "none" }

// JacobiPC is diagonal (point Jacobi) preconditioning.
type JacobiPC struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
// Zero diagonal entries are treated as 1 (no scaling).
func NewJacobi(a *sparse.CSR) *JacobiPC {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if numeric.NonZero(v) {
			inv[i] = 1 / v
		} else {
			inv[i] = 1
		}
	}
	return &JacobiPC{invDiag: inv}
}

// Apply computes z = D^{-1} r.
func (p *JacobiPC) Apply(r, z []float64) {
	for i, v := range r {
		z[i] = v * p.invDiag[i]
	}
}

// Name implements Preconditioner.
func (p *JacobiPC) Name() string { return "jacobi" }

// iluFactor holds an ILU(0) factorization of a CSR block in split
// storage: the strictly-lower part of L (unit diagonal implied), the
// strictly-upper part of U and U's diagonal each live in arrays of their
// own, with their own row pointers, so a triangular sweep streams only
// the entries it reads — the traffic of an SpMV over the same nonzeros.
type iluFactor struct {
	n          int
	lPtr, uPtr []int64
	lCol, uCol []int32
	lVal, uVal []float64
	diag       []float64 // U's diagonal, the pivots
}

// newILU0 computes the ILU(0) factorization of the diagonal block of a
// on rows and columns [lo, hi), reading a's rows in place: a count pass
// sizes the split storage, and factor fills it. A row missing its
// diagonal entry is an error (the pattern is fixed, and FEM stiffness
// always has one); its index is local to the block.
func newILU0(a *sparse.CSR, lo, hi int) (*iluFactor, error) {
	n := hi - lo
	f := &iluFactor{n: n, lPtr: make([]int64, n+1), uPtr: make([]int64, n+1), diag: make([]float64, n)}
	for i := 0; i < n; i++ {
		var nl, nu int64
		diag := false
		for _, c := range a.Col[a.RowPtr[lo+i]:a.RowPtr[lo+i+1]] {
			switch j := int(c) - lo; {
			case j < 0 || j >= n: // outside the block
			case j < i:
				nl++
			case j > i:
				nu++
			default:
				diag = true
			}
		}
		if !diag {
			return nil, fmt.Errorf("solver: row %d has no diagonal entry", i)
		}
		f.lPtr[i+1], f.uPtr[i+1] = f.lPtr[i]+nl, f.uPtr[i]+nu
	}
	f.lCol, f.lVal = make([]int32, f.lPtr[n]), make([]float64, f.lPtr[n])
	f.uCol, f.uVal = make([]int32, f.uPtr[n]), make([]float64, f.uPtr[n])
	f.factor(a, lo, make([]float64, n), make([]int32, n))
	return f, nil
}

// factor fills the factor's arrays, sized by newILU0, with the IKJ-order
// ILU(0) of the block at offset lo of a. Row i is scattered into the
// dense working row w, with mark[j] == i+1 placing column j in its
// pattern; it is eliminated against the finished rows k < i in
// ascending k, each of them through its U part in ascending column
// order — every entry takes the updates of an in-place factorization of
// the block, in its order — and it is gathered back into the split
// storage. A zero pivot is perturbed to 1e-10 times the largest entry
// of its row once the row is done, and a pivot that is still zero (that
// product underflows when the row's entries are subnormal) is read as
// 1e-12 by the later rows, so the factorization always completes (the
// paper's stiffness blocks are strongly diagonally dominant after
// boundary-condition substitution: a safety net, not the normal path).
//
//lint:hotpath
//lint:noescape
func (f *iluFactor) factor(a *sparse.CSR, lo int, w []float64, mark []int32) {
	for i := 0; i < f.n; i++ {
		in := int32(i + 1)
		start, end := a.RowPtr[lo+i], a.RowPtr[lo+i+1]
		vals := a.Val[start:end]
		cols := a.Col[start:end][:len(vals)]
		lw, uw := f.lPtr[i], f.uPtr[i]
		for p, v := range vals {
			j := int(cols[p]) - lo
			if j < 0 || j >= f.n {
				continue
			}
			w[j], mark[j] = v, in
			if j < i {
				f.lCol[lw] = int32(j)
				lw++
			} else if j > i {
				f.uCol[uw] = int32(j)
				uw++
			}
		}
		lCols := f.lCol[f.lPtr[i]:f.lPtr[i+1]]
		uCols := f.uCol[f.uPtr[i]:f.uPtr[i+1]]
		for _, k := range lCols {
			// l_ik = a_ik / u_kk; then a_ij -= l_ik u_kj for j > k in
			// row i's pattern.
			pivot := f.diag[k]
			if numeric.Zero(pivot) {
				pivot = 1e-12
			}
			lik := w[k] / pivot
			w[k] = lik
			kCols := f.uCol[f.uPtr[k]:f.uPtr[k+1]]
			kVals := f.uVal[f.uPtr[k]:f.uPtr[k+1]][:len(kCols)]
			for q, j := range kCols {
				if mark[j] == in {
					w[j] -= lik * kVals[q]
				}
			}
		}
		lVals := f.lVal[f.lPtr[i]:f.lPtr[i+1]][:len(lCols)]
		uVals := f.uVal[f.uPtr[i]:f.uPtr[i+1]][:len(uCols)]
		for p, j := range lCols {
			lVals[p] = w[j]
		}
		for p, j := range uCols {
			uVals[p] = w[j]
		}
		if numeric.Zero(w[i]) {
			w[i] = 1e-10 * maxAbs(lVals, uVals)
		}
		f.diag[i] = w[i]
	}
}

// maxAbs is the largest magnitude in a and b, 1 when all are zero.
func maxAbs(a, b []float64) float64 {
	m := 0.0
	for _, s := range [2][]float64{a, b} {
		for _, v := range s {
			if v > m {
				m = v
			} else if -v > m {
				m = -v
			}
		}
	}
	if numeric.Zero(m) {
		return 1
	}
	return m
}

// solve computes z = (LU)^{-1} r over the local index space; r and z
// may be the same slice. Both sweeps have CSR.MulVec's row-loop form
// (rows re-sliced to one length, so the inner loops carry no bounds
// check on the factor arrays).
//
//lint:hotpath
//lint:noescape
func (f *iluFactor) solve(r, z []float64) {
	// Forward: L y = r (unit diagonal).
	rp, col, val := f.lPtr, f.lCol, f.lVal
	for i := 0; i < f.n; i++ {
		lo, hi := rp[i], rp[i+1]
		row := val[lo:hi]
		cols := col[lo:hi][:len(row)]
		sum := r[i]
		for k, v := range row {
			sum -= v * z[cols[k]]
		}
		z[i] = sum
	}
	// Backward: U z = y.
	rp, col, val = f.uPtr, f.uCol, f.uVal
	for i := f.n - 1; i >= 0; i-- {
		lo, hi := rp[i], rp[i+1]
		row := val[lo:hi]
		cols := col[lo:hi][:len(row)]
		sum := z[i]
		for k, v := range row {
			sum -= v * z[cols[k]]
		}
		z[i] = sum / f.diag[i]
	}
}

// SSORPC is the symmetric successive over-relaxation preconditioner
// M = (D/w + L) (w/(2-w)) D^{-1} (D/w + U), another member of the
// PETSc preconditioner family the paper could have selected. It is
// inherently sequential (forward then backward sweep over all rows),
// which is why the paper's parallel setting favors block Jacobi.
type SSORPC struct {
	a     *sparse.CSR
	omega float64
	diag  []float64
	tmp   []float64
}

// NewSSOR builds the preconditioner with relaxation factor omega in
// (0, 2); omega <= 0 defaults to 1 (symmetric Gauss-Seidel).
func NewSSOR(a *sparse.CSR, omega float64) (*SSORPC, error) {
	if omega <= 0 {
		omega = 1
	}
	if omega >= 2 {
		return nil, fmt.Errorf("solver: SSOR omega %g outside (0,2)", omega)
	}
	d := a.Diag()
	for i, v := range d {
		if numeric.Zero(v) {
			return nil, fmt.Errorf("solver: SSOR requires nonzero diagonal (row %d)", i)
		}
	}
	return &SSORPC{a: a, omega: omega, diag: d, tmp: make([]float64, a.N)}, nil
}

// Apply computes z = M^{-1} r via a forward SOR sweep, diagonal
// scaling, and a backward SOR sweep.
func (p *SSORPC) Apply(r, z []float64) {
	a := p.a
	w := p.omega
	y := p.tmp
	// Forward: (D/w + L) y = r.
	for i := 0; i < a.N; i++ {
		sum := r[i]
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := int(a.Col[q])
			if j < i {
				sum -= a.Val[q] * y[j]
			}
		}
		y[i] = sum * w / p.diag[i]
	}
	// Scale: y <- D y * (2-w)/w.
	for i := 0; i < a.N; i++ {
		y[i] *= p.diag[i] * (2 - w) / w
	}
	// Backward: (D/w + U) z = y.
	for i := a.N - 1; i >= 0; i-- {
		sum := y[i]
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := int(a.Col[q])
			if j > i {
				sum -= a.Val[q] * z[j]
			}
		}
		z[i] = sum * w / p.diag[i]
	}
}

// Name implements Preconditioner.
func (p *SSORPC) Name() string { return fmt.Sprintf("ssor(%.2g)", p.omega) }

// BlockJacobiPC is the paper's preconditioner: the matrix restricted to
// each rank's row block, factorized with ILU(0); off-block coupling is
// dropped. With one block it degenerates to global ILU(0); with n
// blocks of size 1 it degenerates to point Jacobi.
type BlockJacobiPC struct {
	part    par.Partition
	factors []*iluFactor
}

// NewBlockJacobiILU0 builds the block preconditioner for the given row
// partition, each rank factorizing its block straight from a's rows.
func NewBlockJacobiILU0(a *sparse.CSR, pt par.Partition) (*BlockJacobiPC, error) {
	pc := &BlockJacobiPC{part: pt, factors: make([]*iluFactor, pt.P)}
	// One error slot per rank, so the ranks share nothing; the
	// lowest-rank error is reported.
	errs := make([]error, pt.P)
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		if lo == hi {
			return
		}
		f, err := newILU0(a, lo, hi)
		if err != nil {
			errs[r] = fmt.Errorf("solver: block %d: %w", r, err)
			return
		}
		pc.factors[r] = f
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// Apply solves each diagonal block independently (in parallel).
func (pc *BlockJacobiPC) Apply(r, z []float64) {
	pc.part.ForEachRank(func(rank int) {
		lo, hi := pc.part.Range(rank)
		if lo == hi {
			return
		}
		pc.factors[rank].solve(r[lo:hi], z[lo:hi])
	})
}

// Name implements Preconditioner.
func (pc *BlockJacobiPC) Name() string {
	return fmt.Sprintf("block-jacobi(%d,ilu0)", pc.part.P)
}

// Blocks returns the number of blocks.
func (pc *BlockJacobiPC) Blocks() int { return pc.part.P }

// BlockNNZ returns the number of stored entries in each block factor —
// the per-rank preconditioner work, used by the cluster performance
// model.
func (pc *BlockJacobiPC) BlockNNZ() []int64 {
	out := make([]int64, len(pc.factors))
	for i, f := range pc.factors {
		if f != nil {
			out[i] = int64(len(f.lVal) + len(f.uVal) + f.n)
		}
	}
	return out
}
