package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
)

// The oracle of this file is the inner product as it was before the
// chunked reduction, kept here so the production kernels stay pinned to
// it.

// oracleDot is the one-accumulator inner product the chunked reduction
// and dot32 are compared against.
func oracleDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
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

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
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
		x, st, err := GMRESContext(context.Background(), a, b, nil, NewJacobi(a), opts)
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
		if _, _, err := CGContext(context.Background(), a, b, make([]float64, n), nil, DefaultOptions()); err == nil {
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
	_, st, err := CGContext(context.Background(), a, randomRHS(a.N, 1), nil, nil, opts)
	if err != nil || st.Converged {
		t.Fatalf("err=%v stats=%v, want an unconverged solve", err, st)
	}
	if st.Iterations != 3 || st.MatVecs != 5 {
		t.Errorf("%d iterations, %d products; want 3 and 5", st.Iterations, st.MatVecs)
	}
}
