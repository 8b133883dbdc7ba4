// Package solver implements the Krylov solvers and preconditioners the
// paper obtains from PETSc: restarted GMRES with block Jacobi
// preconditioning (one block per CPU partition, factorized with
// ILU(0)), plus conjugate gradients and simpler preconditioners for
// comparison. Matrix-vector products are parallelized across the rank
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

// iluFactor holds an ILU(0) factorization of a CSR block: L (unit lower
// triangular) and U share the original sparsity pattern and are stored
// in a single CSR-like structure with a cached diagonal pointer.
type iluFactor struct {
	n      int
	rowPtr []int64
	col    []int32
	val    []float64
	diag   []int64 // index of the diagonal entry within each row
}

// newILU0 computes the ILU(0) factorization of a. Rows missing a
// diagonal entry get an implicit unit diagonal. A zero pivot is
// perturbed to a small multiple of the largest row entry so the
// factorization always completes (the paper's stiffness blocks are
// strongly diagonally dominant after boundary-condition substitution,
// so this is a safety net, not the normal path).
func newILU0(a *sparse.CSR) (*iluFactor, error) {
	n := a.N
	f := &iluFactor{
		n:      n,
		rowPtr: append([]int64(nil), a.RowPtr...),
		col:    append([]int32(nil), a.Col...),
		val:    append([]float64(nil), a.Val...),
		diag:   make([]int64, n),
	}
	// Locate diagonals; insert is not possible with fixed pattern, so a
	// missing diagonal is an error (FEM stiffness always has one).
	for i := 0; i < n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		cols := f.col[lo:hi]
		k := sort.Search(len(cols), func(p int) bool { return cols[p] >= int32(i) })
		if k == len(cols) || cols[k] != int32(i) {
			return nil, fmt.Errorf("solver: row %d has no diagonal entry", i)
		}
		f.diag[i] = lo + int64(k)
	}
	// IKJ-order ILU(0).
	for i := 0; i < n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for p := lo; p < hi; p++ {
			k := int(f.col[p])
			if k >= i {
				break
			}
			// a_ik /= u_kk
			pivot := f.val[f.diag[k]]
			if numeric.Zero(pivot) {
				pivot = 1e-12
			}
			lik := f.val[p] / pivot
			f.val[p] = lik
			// For j > k in row i's pattern: a_ij -= l_ik * u_kj.
			kLo, kHi := f.diag[k]+1, f.rowPtr[k+1]
			iPos := p + 1
			for q := kLo; q < kHi; q++ {
				cj := f.col[q]
				for iPos < hi && f.col[iPos] < cj {
					iPos++
				}
				if iPos < hi && f.col[iPos] == cj {
					f.val[iPos] -= lik * f.val[q]
				}
			}
		}
		if numeric.Zero(f.val[f.diag[i]]) {
			// Zero pivot: perturb.
			maxRow := 0.0
			for p := lo; p < hi; p++ {
				if v := f.val[p]; v > maxRow {
					maxRow = v
				} else if -v > maxRow {
					maxRow = -v
				}
			}
			if numeric.Zero(maxRow) {
				maxRow = 1
			}
			f.val[f.diag[i]] = 1e-10 * maxRow
		}
	}
	return f, nil
}

// solve computes z = (LU)^{-1} r in place over the local index space.
func (f *iluFactor) solve(r, z []float64) {
	// Forward: L y = r (unit diagonal).
	for i := 0; i < f.n; i++ {
		sum := r[i]
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			sum -= f.val[p] * z[f.col[p]]
		}
		z[i] = sum
	}
	// Backward: U z = y.
	for i := f.n - 1; i >= 0; i-- {
		sum := z[i]
		for p := f.diag[i] + 1; p < f.rowPtr[i+1]; p++ {
			sum -= f.val[p] * z[f.col[p]]
		}
		z[i] = sum / f.val[f.diag[i]]
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
			out[i] = int64(len(f.val))
		}
	}
	return out
}
