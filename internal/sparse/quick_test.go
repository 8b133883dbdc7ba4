package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

// quickCSR derives a small random sparse matrix from quick-generated
// bytes, deterministic in its inputs.
func quickCSR(seed int64, n int) *CSR {
	rng := rand.New(rand.NewSource(seed))
	return randomCSR(rng, n, 0.25)
}

// TestQuickMulVecLinearity checks A(ax + by) = a(Ax) + b(Ay).
func TestQuickMulVecLinearity(t *testing.T) {
	f := func(seed int64, dims uint8, af, bf int16) bool {
		n := 3 + int(dims)%20
		a := quickCSR(seed, n)
		alpha := float64(af) / 100
		beta := float64(bf) / 100
		rng := rand.New(rand.NewSource(seed + 1))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		// lhs: A(alpha x + beta y)
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = alpha*x[i] + beta*y[i]
		}
		lhs := make([]float64, n)
		a.MulVec(comb, lhs)
		// rhs: alpha Ax + beta Ay
		ax := make([]float64, n)
		ay := make([]float64, n)
		a.MulVec(x, ax)
		a.MulVec(y, ay)
		for i := 0; i < n; i++ {
			rhs := alpha*ax[i] + beta*ay[i]
			if math.Abs(lhs[i]-rhs) > 1e-9*(1+math.Abs(rhs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickBuildOrderInvariance checks that triplet insertion order does
// not change the assembled matrix.
func TestQuickBuildOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		type trip struct {
			i, j int
			v    float64
		}
		var trips []trip
		for c := 0; c < 40; c++ {
			trips = append(trips, trip{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
		}
		b1 := NewBuilder(n)
		for _, tr := range trips {
			b1.Add(tr.i, tr.j, tr.v)
		}
		b2 := NewBuilder(n)
		perm := rng.Perm(len(trips))
		for _, p := range perm {
			b2.Add(trips[p].i, trips[p].j, trips[p].v)
		}
		m1, m2 := b1.Build(), b2.Build()
		if m1.NNZ() != m2.NNZ() {
			return false
		}
		for i := 0; i < n; i++ {
			for p := m1.RowPtr[i]; p < m1.RowPtr[i+1]; p++ {
				j := int(m1.Col[p])
				if math.Abs(m1.Val[p]-m2.At(i, j)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionStatsConservation checks that per-rank rows and nnz
// always sum to the matrix totals, for any partition.
func TestQuickPartitionStatsConservation(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		n := 6 + int(seed%17+17)%17
		a := quickCSR(seed, n)
		p := 1 + int(pRaw)%8
		stats := a.PartitionStats(par.Even(a.N, p))
		rows, nnz := 0, int64(0)
		for _, s := range stats {
			rows += s.Rows
			nnz += s.NNZ
		}
		return rows == a.N && nnz == int64(a.NNZ())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
