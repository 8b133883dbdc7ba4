package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/sparse"
)

// denseSolve solves the n x n dense system a x = b by Gaussian
// elimination with partial pivoting, the reference GMRES is fuzzed
// against. a and b are overwritten.
func denseSolve(n int, a []float64, b []float64) []float64 {
	for c := 0; c < n; c++ {
		// Pivot: largest magnitude in column c at or below the diagonal.
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r*n+c]) > math.Abs(a[p*n+c]) {
				p = r
			}
		}
		if p != c {
			for j := 0; j < n; j++ {
				a[c*n+j], a[p*n+j] = a[p*n+j], a[c*n+j]
			}
			b[c], b[p] = b[p], b[c]
		}
		piv := a[c*n+c]
		for r := c + 1; r < n; r++ {
			f := a[r*n+c] / piv
			if numeric.Zero(f) {
				continue
			}
			for j := c; j < n; j++ {
				a[r*n+j] -= f * a[c*n+j]
			}
			b[r] -= f * b[c]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for j := r + 1; j < n; j++ {
			s -= a[r*n+j] * x[j]
		}
		x[r] = s / a[r*n+r]
	}
	return x
}

// fuzzSeeds is FuzzGMRESAgainstDense's seed corpus.
var fuzzSeeds = []struct {
	n            uint8
	offdiag, rhs []byte
}{
	{3, []byte{10, 200, 30, 90, 250, 1}, []byte{1, 2, 3}},
	{1, []byte{}, []byte{128}},
	{6, []byte{0, 0, 0, 0, 255, 255, 255, 255}, []byte{}},
	{5, []byte{7, 77, 177, 27, 127, 227, 3, 93, 183}, []byte{255, 0, 255, 0}},
}

// fuzzSystem builds the fuzz target's system from its raw inputs: the
// sparse matrix, its dense copy and the right-hand side.
func fuzzSystem(nRaw uint8, offdiag, rhs []byte) (n int, a *sparse.CSR, dense, b []float64) {
	n = int(nRaw%8) + 1

	// Off-diagonal entries in [-1, 1] from the fuzzed bytes; the
	// diagonal is the row's absolute sum plus one, making the matrix
	// strictly diagonally dominant whatever the bytes say.
	dense = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || len(offdiag) == 0 {
				continue
			}
			raw := offdiag[(i*n+j)%len(offdiag)]
			dense[i*n+j] = (float64(raw) - 127.5) / 127.5
		}
	}
	bld := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		rowAbs := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				rowAbs += math.Abs(dense[i*n+j])
				if numeric.NonZero(dense[i*n+j]) {
					bld.Add(i, j, dense[i*n+j])
				}
			}
		}
		dense[i*n+i] = rowAbs + 1
		bld.Add(i, i, dense[i*n+i])
	}
	a = bld.Build()

	b = make([]float64, n)
	for i := range b {
		if len(rhs) > 0 {
			b[i] = (float64(rhs[i%len(rhs)]) - 127.5) / 32
		}
	}
	return n, a, dense, b
}

// FuzzGMRESAgainstDense builds small strictly diagonally dominant
// (hence nonsingular and well-conditioned) systems from fuzzer bytes —
// nonsymmetric in general, so this exercises the full Arnoldi path
// rather than the symmetric special case CG covers — and checks the
// GMRES solution against Gaussian elimination with partial pivoting.
// Diagonal dominance bounds the condition number, which is what makes
// a universal comparison tolerance sound: with it, a step of 1e-10 per
// unknown (the stopping rule's unit is the solution's) leaves an error
// far inside the 1e-6 comparison.
func FuzzGMRESAgainstDense(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.n, s.offdiag, s.rhs)
	}
	f.Fuzz(func(t *testing.T, nRaw uint8, offdiag, rhs []byte) {
		n, a, dense, b := fuzzSystem(nRaw, offdiag, rhs)

		got, stats, err := GMRESContext(context.Background(), a, b, nil, nil, Options{Tol: 1e-10, Restart: n + 1, MaxIter: 50 * n})
		if err != nil {
			t.Fatalf("GMRES: %v", err)
		}
		if !stats.Converged {
			t.Fatalf("GMRES did not converge on a diagonally dominant %dx%d system (final rel resid %g)",
				n, n, stats.FinalResRel)
		}

		denseA := append([]float64(nil), dense...)
		denseB := append([]float64(nil), b...)
		want := denseSolve(n, denseA, denseB)
		for i := range want {
			if !numeric.EqAbs(got[i], want[i], 1e-6) && !numeric.EqRel(got[i], want[i], 1e-6) {
				t.Fatalf("x[%d]: GMRES %g, dense %g (n=%d)", i, got[i], want[i], n)
			}
		}

		// The solver must corroborate its own verdict: residual recomputed
		// from the returned iterate, not just the Givens estimate.
		r := make([]float64, n)
		a.MulVec(got, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		rn := 0.0
		for _, v := range r {
			rn += v * v
		}
		bn := 0.0
		for _, v := range b {
			bn += v * v
		}
		if math.Sqrt(rn) > 1e-8*(1+math.Sqrt(bn)) {
			t.Fatalf("true residual %g too large for converged solve", math.Sqrt(rn))
		}
	})
}
