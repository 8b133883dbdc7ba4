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
	"sort"

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

// newILU0 computes the ILU(0) factorization of a, which it takes
// ownership of: the factors are computed in place in a's arrays and then
// split, so a must be a private copy (DiagonalBlock returns one) and is
// garbage once newILU0 returns. A row missing its diagonal entry is an
// error. A zero pivot is perturbed to a small multiple of the largest
// row entry so the factorization always completes (the paper's
// stiffness blocks are strongly diagonally dominant after
// boundary-condition substitution, so this is a safety net, not the
// normal path).
func newILU0(a *sparse.CSR) (*iluFactor, error) {
	n := a.N
	rowPtr, col, val := a.RowPtr, a.Col, a.Val
	// Locate diagonals; insert is not possible with fixed pattern, so a
	// missing diagonal is an error (FEM stiffness always has one).
	diag := make([]int64, n)
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols := col[lo:hi]
		k := sort.Search(len(cols), func(p int) bool { return cols[p] >= int32(i) })
		if k == len(cols) || cols[k] != int32(i) {
			return nil, fmt.Errorf("solver: row %d has no diagonal entry", i)
		}
		diag[i] = lo + int64(k)
	}
	// IKJ-order ILU(0).
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		for p := lo; p < hi; p++ {
			k := int(col[p])
			if k >= i {
				break
			}
			// a_ik /= u_kk
			pivot := val[diag[k]]
			if numeric.Zero(pivot) {
				pivot = 1e-12
			}
			lik := val[p] / pivot
			val[p] = lik
			// For j > k in row i's pattern: a_ij -= l_ik * u_kj.
			kLo, kHi := diag[k]+1, rowPtr[k+1]
			iPos := p + 1
			for q := kLo; q < kHi; q++ {
				cj := col[q]
				for iPos < hi && col[iPos] < cj {
					iPos++
				}
				if iPos < hi && col[iPos] == cj {
					val[iPos] -= lik * val[q]
				}
			}
		}
		if numeric.Zero(val[diag[i]]) {
			// Zero pivot: perturb.
			maxRow := 0.0
			for p := lo; p < hi; p++ {
				if v := val[p]; v > maxRow {
					maxRow = v
				} else if -v > maxRow {
					maxRow = -v
				}
			}
			if numeric.Zero(maxRow) {
				maxRow = 1
			}
			val[diag[i]] = 1e-10 * maxRow
		}
	}
	// Split the combined rows around their diagonals.
	nl := int64(0)
	for i, d := range diag {
		nl += d - rowPtr[i]
	}
	nu := int64(len(val)) - nl - int64(n)
	f := &iluFactor{
		n:    n,
		lPtr: make([]int64, n+1), uPtr: make([]int64, n+1),
		lCol: make([]int32, 0, nl), uCol: make([]int32, 0, nu),
		lVal: make([]float64, 0, nl), uVal: make([]float64, 0, nu),
		diag: make([]float64, n),
	}
	for i, d := range diag {
		f.lCol = append(f.lCol, col[rowPtr[i]:d]...)
		f.lVal = append(f.lVal, val[rowPtr[i]:d]...)
		f.uCol = append(f.uCol, col[d+1:rowPtr[i+1]]...)
		f.uVal = append(f.uVal, val[d+1:rowPtr[i+1]]...)
		f.lPtr[i+1], f.uPtr[i+1] = int64(len(f.lVal)), int64(len(f.uVal))
		f.diag[i] = val[d]
	}
	return f, nil
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
// partition.
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
		f, err := newILU0(a.DiagonalBlock(lo, hi))
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
