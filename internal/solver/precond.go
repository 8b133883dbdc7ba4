// Package solver implements the Krylov solvers and preconditioners the
// paper obtains from PETSc: restarted GMRES with block Jacobi
// preconditioning (one block per CPU partition, factorized with
// BILU(0), the ILU(0) over 3x3 node blocks), plus conjugate gradients
// and simpler preconditioners for comparison. Matrix-vector products, the preconditioner's blocks and
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
// each rank's row block, factorized with ILU(0) over whole 3x3 node
// blocks (see bluFactor), as PETSc's ILU(0) does on a block (BAIJ)
// matrix of block size 3; off-block coupling is dropped. With one block
// it degenerates to global BILU(0); with one block per node, to node
// block Jacobi.
type BlockJacobiPC struct {
	part    par.Partition
	factors []*bluFactor
}

// NewBlockJacobiILU0 builds the block preconditioner for the given row
// partition, each rank factorizing its block straight from a's rows.
// Rows 3i, 3i+1 and 3i+2 are node i's, so a's row count must be a
// multiple of 3, and the partition must cover exactly a's rows with
// every boundary on a node boundary; anything else is an error.
func NewBlockJacobiILU0(a *sparse.CSR, pt par.Partition) (*BlockJacobiPC, error) {
	if a.N%3 != 0 {
		return nil, fmt.Errorf("solver: %d rows are not whole nodes of 3", a.N)
	}
	if err := pt.Validate(a.N); err != nil {
		return nil, fmt.Errorf("solver: %w", err)
	}
	for _, s := range pt.Starts {
		if s%3 != 0 {
			return nil, fmt.Errorf("solver: partition boundary at row %d splits a node", s)
		}
	}
	pc := &BlockJacobiPC{part: pt, factors: make([]*bluFactor, pt.P)}
	// One error slot per rank, so the ranks share nothing; the
	// lowest-rank error is reported.
	errs := make([]error, pt.P)
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		if lo == hi {
			return
		}
		f, err := newBILU0(a, lo, hi)
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

// BlockNNZ returns the number of stored entries in each block factor
// (nine per stored 3x3 block) — the per-rank preconditioner work, used
// by the cluster performance model.
func (pc *BlockJacobiPC) BlockNNZ() []int64 {
	out := make([]int64, len(pc.factors))
	for i, f := range pc.factors {
		if f != nil {
			out[i] = int64(len(f.lVal) + len(f.uVal) + len(f.dInv))
		}
	}
	return out
}
