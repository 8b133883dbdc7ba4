package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/par"
)

// benchMatrix builds a 3D-stencil-like sparse matrix of dimension n^3.
func benchMatrix(n int) *CSR {
	idx := func(i, j, k int) int { return (k*n+j)*n + i }
	b := NewBuilder(n * n * n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				c := idx(i, j, k)
				b.Add(c, c, 6)
				if i > 0 {
					b.Add(c, idx(i-1, j, k), -1)
				}
				if i < n-1 {
					b.Add(c, idx(i+1, j, k), -1)
				}
				if j > 0 {
					b.Add(c, idx(i, j-1, k), -1)
				}
				if j < n-1 {
					b.Add(c, idx(i, j+1, k), -1)
				}
				if k > 0 {
					b.Add(c, idx(i, j, k-1), -1)
				}
				if k < n-1 {
					b.Add(c, idx(i, j, k+1), -1)
				}
			}
		}
	}
	return b.Build()
}

func BenchmarkBuilderBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchMatrix(16)
	}
}

func BenchmarkSpMVSerial(b *testing.B) {
	m := benchMatrix(24)
	x := make([]float64, m.N)
	y := make([]float64, m.N)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.Float64()
	}
	b.SetBytes(int64(m.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
}

func BenchmarkSpMVParallel4(b *testing.B) {
	m := benchMatrix(24)
	x := make([]float64, m.N)
	y := make([]float64, m.N)
	pt := par.Even(m.N, 4)
	b.SetBytes(int64(m.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecPar(pt, x, y)
	}
}

func BenchmarkPartitionStats(b *testing.B) {
	m := benchMatrix(20)
	pt := par.Even(m.N, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PartitionStats(pt)
	}
}

// BenchmarkDiagonalBlock extracts the two diagonal blocks of a two-rank
// block Jacobi set-up from a 110,592-row matrix (9 MB, beyond L2).
func BenchmarkDiagonalBlock(b *testing.B) {
	m := benchMatrix(48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DiagonalBlock(0, m.N/2)
		m.DiagonalBlock(m.N/2, m.N)
	}
}
