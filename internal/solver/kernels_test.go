package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/par"
	"repro/internal/sparse"
)

// The oracles of this file are the kernels as they were before the
// split-storage factor and the chunked reduction (PR 18), kept here so
// the production kernels stay pinned to them.

// oracleDot is the one-accumulator inner product the chunked reduction
// and dot32 are compared against.
func oracleDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// oracleILU is the combined-layout ILU(0) factor: L and U in one CSR
// with a pointer to each row's diagonal.
type oracleILU struct {
	n      int
	rowPtr []int64
	col    []int32
	val    []float64
	diag   []int64
}

func newOracleILU0(a *sparse.CSR) (*oracleILU, error) {
	n := a.N
	f := &oracleILU{
		n:      n,
		rowPtr: append([]int64(nil), a.RowPtr...),
		col:    append([]int32(nil), a.Col...),
		val:    append([]float64(nil), a.Val...),
		diag:   make([]int64, n),
	}
	for i := 0; i < n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		cols := f.col[lo:hi]
		k := sort.Search(len(cols), func(p int) bool { return cols[p] >= int32(i) })
		if k == len(cols) || cols[k] != int32(i) {
			return nil, fmt.Errorf("solver: row %d has no diagonal entry", i)
		}
		f.diag[i] = lo + int64(k)
	}
	for i := 0; i < n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for p := lo; p < hi; p++ {
			k := int(f.col[p])
			if k >= i {
				break
			}
			pivot := f.val[f.diag[k]]
			if numeric.Zero(pivot) {
				pivot = 1e-12
			}
			lik := f.val[p] / pivot
			f.val[p] = lik
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
			maxRow := 0.0
			for p := lo; p < hi; p++ {
				maxRow = math.Max(maxRow, math.Abs(f.val[p]))
			}
			if numeric.Zero(maxRow) {
				maxRow = 1
			}
			f.val[f.diag[i]] = 1e-10 * maxRow
		}
	}
	return f, nil
}

// split is the factor in split storage: each row's entries left of its
// diagonal, the diagonal and the entries right of it.
func (f *oracleILU) split() *iluFactor {
	s := &iluFactor{n: f.n, lPtr: make([]int64, f.n+1), uPtr: make([]int64, f.n+1), diag: make([]float64, f.n)}
	for i, d := range f.diag {
		s.lCol = append(s.lCol, f.col[f.rowPtr[i]:d]...)
		s.lVal = append(s.lVal, f.val[f.rowPtr[i]:d]...)
		s.uCol = append(s.uCol, f.col[d+1:f.rowPtr[i+1]]...)
		s.uVal = append(s.uVal, f.val[d+1:f.rowPtr[i+1]]...)
		s.lPtr[i+1], s.uPtr[i+1] = int64(len(s.lVal)), int64(len(s.uVal))
		s.diag[i] = f.val[d]
	}
	return s
}

// diagonalBlock is the square sub-matrix of rows and columns [lo, hi)
// over the local index space, a private copy: the block the factor was
// built from before it read the operator's rows in place.
func diagonalBlock(m *sparse.CSR, lo, hi int) *sparse.CSR {
	n := hi - lo
	rowPtr := make([]int64, n+1)
	var col []int32
	var val []float64
	for i := lo; i < hi; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if c := int(m.Col[p]); c >= lo && c < hi {
				col, val = append(col, int32(c-lo)), append(val, m.Val[p])
			}
		}
		rowPtr[i-lo+1] = int64(len(col))
	}
	blk, err := sparse.CSRFromParts(n, rowPtr, col, val)
	if err != nil {
		panic(err)
	}
	return blk
}

// factorsMatchOracle builds the block-Jacobi preconditioner of a on pt
// and checks every block's factor against the oracle's on a copy of the
// block, bit for bit: pattern, values and pivots. A missing diagonal
// must be an error from both, the lowest-rank one reported.
func factorsMatchOracle(a *sparse.CSR, pt par.Partition) error {
	pc, err := NewBlockJacobiILU0(a, pt)
	for r := 0; r < pt.P; r++ {
		lo, hi := pt.Range(r)
		if lo == hi {
			if err == nil && pc.factors[r] != nil {
				return fmt.Errorf("empty block %d has a factor", r)
			}
			continue
		}
		f, oerr := newOracleILU0(diagonalBlock(a, lo, hi))
		if oerr != nil {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d: %v", r, oerr)) {
				return fmt.Errorf("block %d: error %v, oracle %v", r, err, oerr)
			}
			return nil
		}
		if err != nil {
			continue // a later block's error
		}
		got, want := pc.factors[r], f.split()
		if got.n != want.n || !slices.Equal(got.lPtr, want.lPtr) || !slices.Equal(got.uPtr, want.uPtr) ||
			!slices.Equal(got.lCol, want.lCol) || !slices.Equal(got.uCol, want.uCol) {
			return fmt.Errorf("block %d: factor pattern differs from the oracle's", r)
		}
		if !sameBits(got.lVal, want.lVal) || !sameBits(got.uVal, want.uVal) || !sameBits(got.diag, want.diag) {
			return fmt.Errorf("block %d: factor values differ from the oracle's", r)
		}
	}
	if err != nil {
		return fmt.Errorf("%v, while the oracle factors every block", err)
	}
	return nil
}

func (f *oracleILU) solve(r, z []float64) {
	for i := 0; i < f.n; i++ {
		sum := r[i]
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			sum -= f.val[p] * z[f.col[p]]
		}
		z[i] = sum
	}
	for i := f.n - 1; i >= 0; i-- {
		sum := z[i]
		for p := f.diag[i] + 1; p < f.rowPtr[i+1]; p++ {
			sum -= f.val[p] * z[f.col[p]]
		}
		z[i] = sum / f.val[f.diag[i]]
	}
}

// randomSPD builds a sparse symmetric, strictly diagonally dominant
// matrix with about perRow off-diagonal entries a row.
func randomSPD(n, perRow int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	off := make(map[[2]int]float64)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow/2; k++ {
			if j := rng.Intn(n); j != i {
				off[[2]int{min(i, j), max(i, j)}] = rng.NormFloat64()
			}
		}
	}
	rowAbs := make([]float64, n)
	b := sparse.NewBuilder(n)
	for ij, v := range off {
		b.Add(ij[0], ij[1], v)
		b.Add(ij[1], ij[0], v)
		rowAbs[ij[0]] += math.Abs(v)
		rowAbs[ij[1]] += math.Abs(v)
	}
	for i, s := range rowAbs {
		b.Add(i, i, s+1+rng.Float64())
	}
	return b.Build()
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSplitILUMatchesCombinedLayout: factored straight from the
// matrix's rows, every block has the combined-layout factor's bits —
// pattern, values and pivots, for the case's partition and for 1, 2, 3
// and 7 even ones — and the split-storage solve applies its operations
// in its order, so the preconditioner's output has the oracle's bits:
// on random SPD blocks, a Laplacian, the fuzz target's seed matrices,
// zero pivots (the perturbation path, including a perturbation that
// underflows to zero) and partitions with empty row ranges. BlockNNZ
// still counts every stored entry, and a missing diagonal is an error
// from both.
func TestSplitILUMatchesCombinedLayout(t *testing.T) {
	dense := func(n int, vals ...float64) *sparse.CSR {
		b := sparse.NewBuilder(n)
		for i, v := range vals {
			b.Add(i/n, i%n, v)
		}
		return b.Build()
	}
	type iluCase struct {
		name string
		a    *sparse.CSR
		pt   par.Partition
	}
	cases := []iluCase{
		{"spd-1", randomSPD(300, 8, 1), par.Even(300, 1)},
		{"spd-3", randomSPD(300, 8, 2), par.Even(300, 3)},
		{"spd-dense-rows", randomSPD(64, 40, 3), par.Even(64, 2)},
		{"laplacian", laplacian3D(6, 5, 4), par.Even(120, 4)},
		{"zero-pivot-after-elimination", dense(2, 1, 1, 1, 1), par.Even(2, 1)},
		{"zero-leading-pivot", dense(3, 0, 1, 2, 1, 0, 3, 2, 3, 0), par.Even(3, 1)},
		{"zero-pivot-in-second-block", dense(4, 2, 1, 0, 1, 4, 2, 0, 0, 0, 0, 3, 1, 1, 0, 3, 4), par.Even(4, 2)},
		// 1e-10 times the row's largest magnitude underflows to zero, and
		// the next row divides by the 1e-12 floor instead.
		{"subnormal-zero-pivot", dense(2, 0, 1e-320, 1, 1), par.Even(2, 1)},
		{"empty-ranges", randomSPD(5, 4, 4), par.Even(5, 7)},
		{"empty-middle-range", randomSPD(40, 6, 5), par.Partition{N: 40, P: 3, Starts: []int{0, 17, 17, 40}}},
	}
	for i, s := range fuzzSeeds {
		n, a, _, _ := fuzzSystem(s.n, s.offdiag, s.rhs)
		cases = append(cases, iluCase{fmt.Sprint("fuzz-seed-", i), a, par.Even(n, 1)})
	}
	for _, c := range cases {
		for _, pt := range []par.Partition{c.pt, par.Even(c.a.N, 1), par.Even(c.a.N, 2), par.Even(c.a.N, 3), par.Even(c.a.N, 7)} {
			if err := factorsMatchOracle(c.a, pt); err != nil {
				t.Errorf("%s, %d blocks: %v", c.name, pt.P, err)
			}
		}
		pc, err := NewBlockJacobiILU0(c.a, c.pt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		r := randomRHS(c.a.N, 7)
		got, want := make([]float64, c.a.N), make([]float64, c.a.N)
		pc.Apply(r, got)
		nnz := pc.BlockNNZ()
		for rank := 0; rank < c.pt.P; rank++ {
			lo, hi := c.pt.Range(rank)
			if lo == hi {
				if nnz[rank] != 0 {
					t.Errorf("%s: empty block %d reports %d entries", c.name, rank, nnz[rank])
				}
				continue
			}
			f, err := newOracleILU0(diagonalBlock(c.a, lo, hi))
			if err != nil {
				t.Fatalf("%s: oracle: %v", c.name, err)
			}
			f.solve(r[lo:hi], want[lo:hi])
			if nnz[rank] != int64(len(f.val)) {
				t.Errorf("%s: block %d reports %d entries, the factor stores %d", c.name, rank, nnz[rank], len(f.val))
			}
		}
		if !sameBits(got, want) {
			t.Errorf("%s: split-storage solve differs from the combined-layout solve", c.name)
		}
	}
	// A missing diagonal (row 1) is still an error, from both.
	b := sparse.NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(2, 2, 1)
	missing := b.Build()
	for _, ranks := range []int{1, 2, 3, 7} {
		if err := factorsMatchOracle(missing, par.Even(3, ranks)); err != nil {
			t.Errorf("missing diagonal, %d blocks: %v", ranks, err)
		}
	}
	if _, err := NewBlockJacobiILU0(missing, par.Even(3, 1)); err == nil {
		t.Error("a row without its diagonal was factorized")
	}
}

// reductionLengths are the vector lengths the reduction tests run at:
// empty, one element, around one chunk, and several chunks with a tail
// that is not a multiple of the lane count.
var reductionLengths = []int{0, 1, reduceChunk - 1, reduceChunk, reduceChunk + 1, 3*reduceChunk + 5}

// TestReductionOrderIndependentOfWorkers: the fused step returns dot's
// bits — and leaves the same vector behind — as the unfused AXPY
// followed by dot, for every worker count; with vn == zw it is the norm
// path; and the whole is within rounding of the one-accumulator oracle.
func TestReductionOrderIndependentOfWorkers(t *testing.T) {
	const h = 0.37
	for _, n := range reductionLengths {
		vi, vn, zw0 := randomRHS(n, 1), randomRHS(n, 2), randomRHS(n, 3)
		axpy := append([]float64(nil), zw0...)
		for j := range axpy {
			axpy[j] -= h * vi[j]
		}
		wantDot, wantFused, wantNorm := dot(zw0, vn), dot(axpy, vn), dot(axpy, axpy)
		if norm2(axpy) != math.Sqrt(wantNorm) {
			t.Errorf("n=%d: norm2 is not the square root of dot(a, a)", n)
		}
		if ref := oracleDot(zw0, vn); math.Abs(wantDot-ref) > 1e-12*float64(n+1) {
			t.Errorf("n=%d: dot = %v, one-accumulator oracle %v", n, wantDot, ref)
		}
		for _, workers := range []int{1, 2, 3, 7} {
			ws := newGMRESWorkspace(n, 1, workers)
			zw := append([]float64(nil), zw0...)
			if got := ws.step(0, nil, zw, vn); got != wantDot || !sameBits(zw, zw0) {
				t.Errorf("n=%d workers=%d: dot-only step = %v, dot = %v", n, workers, got, wantDot)
			}
			if got := ws.step(h, vi, zw, vn); got != wantFused || !sameBits(zw, axpy) {
				t.Errorf("n=%d workers=%d: fused step = %v, AXPY then dot = %v", n, workers, got, wantFused)
			}
			zw = append(zw[:0], zw0...)
			if got := ws.step(h, vi, zw, zw); got != wantNorm || !sameBits(zw, axpy) {
				t.Errorf("n=%d workers=%d: fused norm step = %v, dot(a, a) = %v", n, workers, got, wantNorm)
			}
		}
	}
}

// TestSweepsMatchSerialLoops: the element-wise sweeps of the workspace
// are the serial loops they replaced, for every worker count.
func TestSweepsMatchSerialLoops(t *testing.T) {
	const n, k = 3*reduceChunk + 5, 4
	b, r0, x0, y := randomRHS(n, 1), randomRHS(n, 2), randomRHS(n, 3), randomRHS(k, 4)
	wantR, wantS, wantX := make([]float64, n), make([]float64, n), append([]float64(nil), x0...)
	v := make([][]float64, k)
	for i := range v {
		v[i] = randomRHS(n, int64(10+i))
		for j := range wantX {
			wantX[j] += y[i] * v[i][j]
		}
	}
	for j := range wantR {
		wantR[j] = b[j] - r0[j]
		wantS[j] = r0[j] * 0.3
	}
	for _, workers := range []int{1, 2, 3, 7} {
		ws := newGMRESWorkspace(n, 1, workers)
		r, s, x := append([]float64(nil), r0...), make([]float64, n), append([]float64(nil), x0...)
		ws.scale(s, r, 0.3)
		ws.residual(b, r)
		ws.update(x, y, v)
		if !sameBits(r, wantR) || !sameBits(s, wantS) || !sameBits(x, wantX) {
			t.Errorf("workers=%d: a sweep differs from its serial loop", workers)
		}
	}
}

// TestGMRESBitIdenticalAcrossWorkers: with a preconditioner that does
// not depend on the partition, the iterates have the same bits for any
// worker count — the worker count never enters a sum.
func TestGMRESBitIdenticalAcrossWorkers(t *testing.T) {
	a := laplacian3D(22, 21, 20) // five chunks
	b := randomRHS(a.N, 5)
	opts := DefaultOptions()
	opts.Tol = 1e-8
	opts.RecordHistory = true
	var ref []float64
	var refStats Stats
	for _, p := range []int{1, 2, 3, 7} {
		opts.Partition = par.Even(a.N, p)
		x, st, err := GMRES(a, b, nil, NewJacobi(a), opts)
		if err != nil || !st.Converged {
			t.Fatalf("P=%d: err=%v stats=%v", p, err, st)
		}
		if ref == nil {
			ref, refStats = x, st
			if st.Restarts == 0 {
				t.Fatal("test setup: the solve should span several restart cycles")
			}
			continue
		}
		if !sameBits(x, ref) || !sameBits(st.History, refStats.History) || st.Iterations != refStats.Iterations {
			t.Errorf("P=%d: solution or residual history differs from P=1 (%d vs %d iterations)",
				p, st.Iterations, refStats.Iterations)
		}
	}
}

// TestCGRejectsWrongLengthX0: a seed of the wrong length is an error,
// as for GMRES, not a silently truncated or zero-padded start.
func TestCGRejectsWrongLengthX0(t *testing.T) {
	a := laplacian1D(10)
	b := randomRHS(10, 1)
	for _, n := range []int{3, 11} {
		if _, _, err := CG(a, b, make([]float64, n), nil, DefaultOptions()); err == nil {
			t.Errorf("x0 of length %d accepted for n=10", n)
		}
	}
}

// TestCGCountsFinalResidualMatVec: a solve that runs out of iterations
// has done one product for the entry residual, one per iteration and one
// for the final residual.
func TestCGCountsFinalResidualMatVec(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	opts := DefaultOptions()
	opts.Tol = 1e-14
	opts.MaxIter = 3
	_, st, err := CG(a, randomRHS(a.N, 1), nil, nil, opts)
	if err != nil || st.Converged {
		t.Fatalf("err=%v stats=%v, want an unconverged solve", err, st)
	}
	if st.Iterations != 3 || st.MatVecs != 5 {
		t.Errorf("%d iterations, %d products; want 3 and 5", st.Iterations, st.MatVecs)
	}
}
