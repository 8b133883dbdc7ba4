package solver

import (
	"fmt"

	"repro/internal/numeric"
	"repro/internal/sparse"
)

// bluFactor is the block ILU(0) factorization, BILU(0), of a matrix
// diagonal block over 3x3 node blocks, the form PETSc's ILU(0) takes on
// a matrix of block size 3: its pattern is every node block that any
// of a node's three rows touches inside the block, so each node block
// is factored whole even where the matrix stores only part of it. L
// (identity diagonal blocks implied) and U's strictly-upper blocks each
// live in arrays of their own, with their own block-row pointers, one
// column index per block and nine row-major values per block, so a
// triangular sweep streams only the blocks it reads; the pivot blocks
// are stored inverted, so a sweep handles a node's three rows in one
// pass and never divides.
type bluFactor struct {
	nb         int // block rows (nodes)
	lPtr, uPtr []int
	lCol, uCol []int32
	lVal, uVal []float64
	dInv       []float64 // the inverted pivot blocks, nine values each
}

// newBILU0 computes the BILU(0) factorization of the diagonal block of
// a on rows and columns [lo, hi), both multiples of 3, reading a's rows
// in place: a count pass sizes the block storage exactly, and factor
// fills it. A node whose rows touch no column of its own is an error;
// its index is local to the block.
func newBILU0(a *sparse.CSR, lo, hi int) (*bluFactor, error) {
	n := hi - lo
	nb := n / 3
	f := &bluFactor{nb: nb, lPtr: make([]int, nb+1), uPtr: make([]int, nb+1), dInv: make([]float64, 9*nb)}
	// mark[J] == I+1 once block row I has met block column J.
	mark := make([]int32, nb)
	widest := 0
	for i := 0; i < nb; i++ {
		in := int32(i + 1)
		var nl, nu int
		for k := 0; k < 3; k++ {
			for _, c := range a.Col[a.RowPtr[lo+3*i+k]:a.RowPtr[lo+3*i+k+1]] {
				// A column left of the block wraps to a huge j.
				if j := uint(int(c)-lo) / 3; j < uint(nb) && mark[j] != in {
					mark[j] = in
					if int(j) < i {
						nl++
					} else if int(j) > i {
						nu++
					}
				}
			}
		}
		if mark[i] != in {
			return nil, fmt.Errorf("solver: node %d has no diagonal block", i)
		}
		f.lPtr[i+1], f.uPtr[i+1] = f.lPtr[i]+nl, f.uPtr[i]+nu
		widest = max(widest, nl+nu+1)
	}
	f.lCol, f.lVal = make([]int32, f.lPtr[nb]), make([]float64, 9*f.lPtr[nb])
	f.uCol, f.uVal = make([]int32, f.uPtr[nb]), make([]float64, 9*f.uPtr[nb])
	clear(mark)
	f.factor(a, lo, make([]float64, 9*nb), mark, make([]int32, widest))
	return f, nil
}

// factor fills the factor's arrays, sized by newBILU0, with the
// IKJ-order BILU(0) of the block at offset lo of a. Block row I is
// scattered into the dense working row w (nine values per block
// column, each block zeroed where the row first meets it; mark[J] ==
// I+1 places block column J in the row's pattern, and cols collects the
// pattern, then sorted); each of its L blocks, in ascending K, becomes
// L_IK = W_IK D_K⁻¹ and takes W_IJ -= L_IK U_KJ off every block of
// row K's U part in the pattern; the row is gathered back, and its
// pivot block D_I = W_II is inverted (see invertPivot). Every 3x3
// product sums its three terms left to right.
//
//lint:hotpath
//lint:noescape
func (f *bluFactor) factor(a *sparse.CSR, lo int, w []float64, mark, cols []int32) {
	for i := 0; i < f.nb; i++ {
		in := int32(i + 1)
		nc := 0
		for k := 0; k < 3; k++ {
			start, end := a.RowPtr[lo+3*i+k], a.RowPtr[lo+3*i+k+1]
			vals := a.Val[start:end]
			rowCols := a.Col[start:end][:len(vals)]
			for p, v := range vals {
				c := uint(int(rowCols[p]) - lo)
				j := c / 3
				if j >= uint(f.nb) {
					continue
				}
				if mark[j] != in {
					mark[j] = in
					*(*[9]float64)(w[9*j:]) = [9]float64{}
					cols[nc] = int32(j)
					nc++
				}
				w[6*j+3*uint(k)+c] = v // block j, row k, column c - 3j
			}
		}
		pattern := cols[:nc]
		for p := 1; p < len(pattern); p++ {
			for q := p; q > 0 && pattern[q-1] > pattern[q]; q-- {
				pattern[q-1], pattern[q] = pattern[q], pattern[q-1]
			}
		}
		lCols := f.lCol[f.lPtr[i]:f.lPtr[i+1]]
		uCols := f.uCol[f.uPtr[i]:f.uPtr[i+1]]
		copy(lCols, pattern)
		copy(uCols, pattern[len(lCols)+1:])
		for _, kb := range lCols {
			wk := (*[9]float64)(w[9*kb:])
			d := (*[9]float64)(f.dInv[9*kb:])
			l0 := wk[0]*d[0] + wk[1]*d[3] + wk[2]*d[6]
			l1 := wk[0]*d[1] + wk[1]*d[4] + wk[2]*d[7]
			l2 := wk[0]*d[2] + wk[1]*d[5] + wk[2]*d[8]
			l3 := wk[3]*d[0] + wk[4]*d[3] + wk[5]*d[6]
			l4 := wk[3]*d[1] + wk[4]*d[4] + wk[5]*d[7]
			l5 := wk[3]*d[2] + wk[4]*d[5] + wk[5]*d[8]
			l6 := wk[6]*d[0] + wk[7]*d[3] + wk[8]*d[6]
			l7 := wk[6]*d[1] + wk[7]*d[4] + wk[8]*d[7]
			l8 := wk[6]*d[2] + wk[7]*d[5] + wk[8]*d[8]
			wk[0], wk[1], wk[2], wk[3], wk[4], wk[5], wk[6], wk[7], wk[8] = l0, l1, l2, l3, l4, l5, l6, l7, l8
			kCols := f.uCol[f.uPtr[kb]:f.uPtr[kb+1]]
			kVals := f.uVal[9*f.uPtr[kb] : 9*f.uPtr[kb+1]]
			for q, j := range kCols {
				if mark[j] != in {
					continue
				}
				u := (*[9]float64)(kVals[9*q:])
				wj := (*[9]float64)(w[9*j:])
				wj[0] -= l0*u[0] + l1*u[3] + l2*u[6]
				wj[1] -= l0*u[1] + l1*u[4] + l2*u[7]
				wj[2] -= l0*u[2] + l1*u[5] + l2*u[8]
				wj[3] -= l3*u[0] + l4*u[3] + l5*u[6]
				wj[4] -= l3*u[1] + l4*u[4] + l5*u[7]
				wj[5] -= l3*u[2] + l4*u[5] + l5*u[8]
				wj[6] -= l6*u[0] + l7*u[3] + l8*u[6]
				wj[7] -= l6*u[1] + l7*u[4] + l8*u[7]
				wj[8] -= l6*u[2] + l7*u[5] + l8*u[8]
			}
		}
		lVals := f.lVal[9*f.lPtr[i] : 9*f.lPtr[i+1]]
		uVals := f.uVal[9*f.uPtr[i] : 9*f.uPtr[i+1]]
		for p, j := range lCols {
			*(*[9]float64)(lVals[9*p:]) = *(*[9]float64)(w[9*j:])
		}
		for p, j := range uCols {
			*(*[9]float64)(uVals[9*p:]) = *(*[9]float64)(w[9*j:])
		}
		invertPivot((*[9]float64)(f.dInv[9*i:]), (*[9]float64)(w[9*i:]), lVals, uVals)
	}
}

// invertPivot sets inv to the inverse of the pivot block d, taken by
// cofactors (see invert3). A pivot block that is singular, or whose
// inverse is not finite, is perturbed: δ = 1e-10 times the largest magnitude of its block row
// (the finished L and U blocks and d; 1 when all are zero; 1e-12 when
// that product underflows to zero) is added to its diagonal, and when
// d + δI has no finite inverse either, inv is I/δ. So the factorization
// always completes (the paper's stiffness blocks are strongly
// diagonally dominant after boundary-condition substitution: a safety
// net, not the normal path).
func invertPivot(inv, d *[9]float64, lVals, uVals []float64) {
	if invert3(inv, d) {
		return
	}
	delta := 1e-10 * maxAbs(lVals, uVals, d[:])
	if numeric.Zero(delta) {
		delta = 1e-12
	}
	p := *d
	p[0] += delta
	p[4] += delta
	p[8] += delta
	if invert3(inv, &p) {
		return
	}
	*inv = [9]float64{1 / delta, 0, 0, 0, 1 / delta, 0, 0, 0, 1 / delta}
}

// maxAbs is the largest magnitude in vs, 1 when all are zero.
func maxAbs(vs ...[]float64) float64 {
	m := 0.0
	for _, s := range vs {
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

// invert3 sets inv to the inverse of the 3x3 block d: the transposed
// cofactors times the reciprocal of the determinant, which is d's first
// row against its cofactors. It reports whether all nine entries are
// finite (false for a singular d).
func invert3(inv, d *[9]float64) bool {
	c0 := d[4]*d[8] - d[5]*d[7]
	c1 := d[5]*d[6] - d[3]*d[8]
	c2 := d[3]*d[7] - d[4]*d[6]
	r := 1 / (d[0]*c0 + d[1]*c1 + d[2]*c2)
	*inv = [9]float64{
		c0 * r, (d[7]*d[2] - d[8]*d[1]) * r, (d[1]*d[5] - d[2]*d[4]) * r,
		c1 * r, (d[8]*d[0] - d[6]*d[2]) * r, (d[2]*d[3] - d[0]*d[5]) * r,
		c2 * r, (d[6]*d[1] - d[7]*d[0]) * r, (d[0]*d[4] - d[1]*d[3]) * r,
	}
	for _, v := range inv {
		if !numeric.Finite(v) {
			return false
		}
	}
	return true
}

// solve computes z = (LU)⁻¹ r over the local index space; r and z may
// be the same slice. Forward, y_I = r_I − Σ_{J<I} L_IJ y_J; backward,
// z_I = D_I⁻¹ (y_I − Σ_{J>I} U_IJ z_J): each block row's three sums
// are carried together, every 3x3 product summing its terms left to
// right.
//
//lint:hotpath
//lint:noescape
func (f *bluFactor) solve(r, z []float64) {
	for i := 0; i < f.nb; i++ {
		cols := f.lCol[f.lPtr[i]:f.lPtr[i+1]]
		vals := f.lVal[9*f.lPtr[i] : 9*f.lPtr[i+1]]
		ri := (*[3]float64)(r[3*i:])
		s0, s1, s2 := ri[0], ri[1], ri[2]
		for k, c := range cols {
			b := (*[9]float64)(vals[9*k:])
			y := (*[3]float64)(z[3*c:])
			s0 -= b[0]*y[0] + b[1]*y[1] + b[2]*y[2]
			s1 -= b[3]*y[0] + b[4]*y[1] + b[5]*y[2]
			s2 -= b[6]*y[0] + b[7]*y[1] + b[8]*y[2]
		}
		zi := (*[3]float64)(z[3*i:])
		zi[0], zi[1], zi[2] = s0, s1, s2
	}
	for i := f.nb - 1; i >= 0; i-- {
		cols := f.uCol[f.uPtr[i]:f.uPtr[i+1]]
		vals := f.uVal[9*f.uPtr[i] : 9*f.uPtr[i+1]]
		zi := (*[3]float64)(z[3*i:])
		s0, s1, s2 := zi[0], zi[1], zi[2]
		for k, c := range cols {
			b := (*[9]float64)(vals[9*k:])
			x := (*[3]float64)(z[3*c:])
			s0 -= b[0]*x[0] + b[1]*x[1] + b[2]*x[2]
			s1 -= b[3]*x[0] + b[4]*x[1] + b[5]*x[2]
			s2 -= b[6]*x[0] + b[7]*x[1] + b[8]*x[2]
		}
		d := (*[9]float64)(f.dInv[9*i:])
		zi[0] = d[0]*s0 + d[1]*s1 + d[2]*s2
		zi[1] = d[3]*s0 + d[4]*s1 + d[5]*s2
		zi[2] = d[6]*s0 + d[7]*s1 + d[8]*s2
	}
}
