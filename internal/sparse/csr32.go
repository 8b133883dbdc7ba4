package sparse

import (
	"fmt"

	"repro/internal/par"
)

// CSR32 is the float32-storage variant of CSR: same structure, but the
// stored values are demoted to float32 while every kernel accumulates
// in float64. SpMV on FEM stiffness matrices is memory-bandwidth bound
// — per stored entry the float64 kernel streams 12 bytes (8 value + 4
// column) where this one streams 8 — so demoting storage buys
// throughput without giving up accumulation accuracy. The value array
// is storage-class: demotable, never accumulated into at float32.
type CSR32 struct {
	N      int
	RowPtr []int64
	Col    []int32
	Val    []float32
}

// NewCSR32 demotes a float64 CSR matrix to float32 storage. This is the
// one sanctioned narrowing boundary for matrix values: the structure
// (RowPtr, Col) is shared with the source matrix, only the value array
// is rounded and copied.
func NewCSR32(m *CSR) *CSR32 {
	c := &CSR32{N: m.N, RowPtr: m.RowPtr, Col: m.Col, Val: make([]float32, len(m.Val))}
	for i, v := range m.Val {
		c.Val[i] = float32(v)
	}
	c.checkShape()
	return c
}

// checkShape validates the CSR32 shape invariants at construction time
// (see CSR.checkShape).
func (m *CSR32) checkShape() {
	if len(m.RowPtr) != m.N+1 || len(m.Val) != len(m.Col) || int64(len(m.Val)) != m.RowPtr[m.N] {
		panic(fmt.Sprintf("sparse: inconsistent CSR32 shape: n=%d len(rowPtr)=%d len(col)=%d len(val)=%d",
			m.N, len(m.RowPtr), len(m.Col), len(m.Val)))
	}
}

// NNZ returns the number of stored entries.
func (m *CSR32) NNZ() int { return len(m.Val) }

// MulVec computes y = A x serially with float64 accumulation over the
// float32-stored values: each product widens the stored value before
// the multiply, so the row sum carries full float64 precision. y and x
// must have length N and may not alias (see CSR.MulVec).
//
//lint:hotpath
//lint:noescape
func (m *CSR32) MulVec(x, y []float64) {
	rp, col, val := m.RowPtr, m.Col, m.Val
	for i := 0; i < m.N; i++ {
		lo, hi := rp[i], rp[i+1]
		row := val[lo:hi]
		// Re-slicing cols to row's length lets the compiler prove the
		// two slices stride together, eliminating the cols[k] bounds
		// check inside the loop.
		cols := col[lo:hi][:len(row)]
		sum := 0.0
		for k, v := range row {
			sum += float64(v) * x[cols[k]]
		}
		y[i] = sum
	}
}

// MulVecRows computes y[lo:hi] = (A x)[lo:hi], the per-rank portion of
// a distributed product, with the same widen-before-multiply
// accumulation as MulVec. x and y may not alias (see CSR.MulVecRows).
//
//lint:hotpath
//lint:noescape
func (m *CSR32) MulVecRows(x, y []float64, lo, hi int) {
	rp, col, val := m.RowPtr, m.Col, m.Val
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		row := val[start:end]
		cols := col[start:end][:len(row)]
		sum := 0.0
		for k, v := range row {
			sum += float64(v) * x[cols[k]]
		}
		y[i] = sum
	}
}

// MulVecPar computes y = A x with one goroutine per partition range.
// x and y inherit MulVecRows' non-aliasing requirement.
func (m *CSR32) MulVecPar(pt par.Partition, x, y []float64) {
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		m.MulVecRows(x, y, lo, hi)
	})
}
