// Package sparse implements the compressed sparse row (CSR) matrices
// and parallel matrix-vector products underlying the FEM solver — the
// role PETSc's Mat plays in the paper. Matrices are stored in CSR and
// partitioned by contiguous row blocks across ranks, matching PETSc's
// default row-block distribution; the stiffness matrix is assembled
// through BlockAssembler, anything small from coordinate (COO) triplets
// through Builder.
package sparse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/numeric"
	"repro/internal/par"
)

// Builder accumulates COO triplets; duplicate entries are summed, in the
// order they were added, when the matrix is finalized. It is the small
// general COO-to-CSR constructor of tests and fuzzers, and the
// reference BlockAssembler is tested against.
type Builder struct {
	n          int
	rows, cols []int32
	vals       []float64
}

// NewBuilder creates a builder for an n x n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add accumulates v at (i, j). It panics on out-of-range indices.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for n=%d", i, j, b.n))
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	b.vals = append(b.vals, v)
}

// Build finalizes the builder into a CSR matrix, summing duplicates.
func (b *Builder) Build() *CSR {
	n := b.n
	// Bucket the triplets by row, keeping insertion order within a row.
	rowStart := make([]int64, n+1)
	for _, r := range b.rows {
		rowStart[r+1]++
	}
	for i := 0; i < n; i++ {
		rowStart[i+1] += rowStart[i]
	}
	type ent struct {
		c int32
		v float64
	}
	bucket := make([]ent, len(b.vals))
	cursor := append([]int64(nil), rowStart[:n]...)
	for t, r := range b.rows {
		bucket[cursor[r]] = ent{b.cols[t], b.vals[t]}
		cursor[r]++
	}
	// Sort each row by column (stably, so duplicates sum in insertion
	// order) and merge duplicates in place: the write cursor w never
	// passes the read position.
	m := &CSR{N: n, RowPtr: make([]int64, n+1)}
	w := 0
	for r := 0; r < n; r++ {
		row := bucket[rowStart[r]:rowStart[r+1]]
		slices.SortStableFunc(row, func(a, b ent) int { return cmp.Compare(a.c, b.c) })
		for i := 0; i < len(row); {
			e := row[i]
			for i++; i < len(row) && row[i].c == e.c; i++ {
				e.v += row[i].v
			}
			bucket[w] = e
			w++
		}
		m.RowPtr[r+1] = int64(w)
	}
	// Exactly sized output: the matrix must not pin the triplet-sized
	// scratch for as long as it lives.
	m.Col = make([]int32, w)
	m.Val = make([]float64, w)
	for i, e := range bucket[:w] {
		m.Col[i] = e.c
		m.Val[i] = e.v
	}
	m.checkShape()
	return m
}

// CSR is an n x n sparse matrix in compressed sparse row format. The
// kernels index it by the declared shape invariants without bounds
// slack: RowPtr has one entry per row plus the terminating total, and
// Val/Col run in lockstep up to that total.
//
// Val is storage-class under the precision model: the matrix entries
// are bandwidth-bound data, demotable to float32 via NewCSR32, while
// every kernel accumulates over them in float64.
type CSR struct {
	N      int
	RowPtr []int64
	Col    []int32
	Val    []float64
}

// CSRFromParts reconstructs a CSR matrix from its raw arrays (a
// deserialized artifact blob), validating the shape invariants with an
// error instead of checkShape's panic so corrupt input fails the decode
// rather than crashing the process.
func CSRFromParts(n int, rowPtr []int64, col []int32, val []float64) (*CSR, error) {
	if n < 0 || len(rowPtr) != n+1 || len(col) != len(val) || int64(len(val)) != rowPtr[n] {
		return nil, fmt.Errorf("sparse: inconsistent CSR parts: n=%d len(rowPtr)=%d len(col)=%d len(val)=%d",
			n, len(rowPtr), len(col), len(val))
	}
	m := &CSR{N: n, RowPtr: rowPtr, Col: col, Val: val}
	m.checkShape()
	return m, nil
}

// checkShape validates the CSR shape invariants at construction time.
func (m *CSR) checkShape() {
	if len(m.RowPtr) != m.N+1 || len(m.Val) != len(m.Col) || int64(len(m.Val)) != m.RowPtr[m.N] {
		panic(fmt.Sprintf("sparse: inconsistent CSR shape: n=%d len(rowPtr)=%d len(col)=%d len(val)=%d",
			m.N, len(m.RowPtr), len(m.Col), len(m.Val)))
	}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the entry (i, j), zero if not stored. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.Col[lo:hi]
	k := sort.Search(len(cols), func(p int) bool { return cols[p] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return m.Val[lo+int64(k)]
	}
	return 0
}

// MulVec computes y = A x serially. y and x must have length N and may
// not alias: y is written while x is still being read, so y = A·y in
// place would consume already-overwritten entries.
//
//lint:hotpath
//lint:noescape
func (m *CSR) MulVec(x, y []float64) {
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
			sum += v * x[cols[k]]
		}
		y[i] = sum
	}
}

// MulVecRows computes y[lo:hi] = (A x)[lo:hi], the per-rank portion of a
// distributed matrix-vector product. x and y may not alias (see
// MulVec); under MulVecPar the ranks read x concurrently while writing
// disjoint y ranges, so overlap would also be a data race.
//
//lint:hotpath
//lint:noescape
func (m *CSR) MulVecRows(x, y []float64, lo, hi int) {
	rp, col, val := m.RowPtr, m.Col, m.Val
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		row := val[start:end]
		cols := col[start:end][:len(row)]
		sum := 0.0
		for k, v := range row {
			sum += v * x[cols[k]]
		}
		y[i] = sum
	}
}

// MulVecPar computes y = A x with one goroutine per partition range.
// x and y inherit MulVecRows' non-aliasing requirement.
func (m *CSR) MulVecPar(pt par.Partition, x, y []float64) {
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		m.MulVecRows(x, y, lo, hi)
	})
}

// Diag extracts the main diagonal.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// IsSymmetric reports whether the matrix is numerically symmetric
// within tolerance tol (relative to the largest entry magnitude).
func (m *CSR) IsSymmetric(tol float64) bool {
	maxAbs := 0.0
	for _, v := range m.Val {
		if a := abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if numeric.Zero(maxAbs) {
		return true
	}
	for i := 0; i < m.N; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := int(m.Col[p])
			if abs(m.Val[p]-m.At(j, i)) > tol*maxAbs {
				return false
			}
		}
	}
	return true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RankWork summarizes the work and communication footprint of one rank
// under a row-block partition: used by the cluster performance model.
type RankWork struct {
	Rows int
	NNZ  int64
	// HaloIn is the number of distinct off-partition x entries this
	// rank's rows reference: the values it must receive before a
	// distributed SpMV.
	HaloIn int
	// HaloPeers is the number of distinct ranks it receives from.
	HaloPeers int
}

// PartitionStats computes per-rank work summaries for a row-block
// partition.
func (m *CSR) PartitionStats(pt par.Partition) []RankWork {
	out := make([]RankWork, pt.P)
	for r := 0; r < pt.P; r++ {
		lo, hi := pt.Range(r)
		w := RankWork{Rows: hi - lo}
		w.NNZ = m.RowPtr[hi] - m.RowPtr[lo]
		seen := map[int32]bool{}
		peers := map[int]bool{}
		for i := lo; i < hi; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				c := m.Col[p]
				if int(c) < lo || int(c) >= hi {
					if !seen[c] {
						seen[c] = true
						peers[pt.Owner(int(c))] = true
					}
				}
			}
		}
		w.HaloIn = len(seen)
		w.HaloPeers = len(peers)
		out[r] = w
	}
	return out
}
