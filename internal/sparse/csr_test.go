package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

func denseFromCSR(m *CSR) [][]float64 {
	d := make([][]float64, m.N)
	for i := range d {
		d[i] = make([]float64, m.N)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			d[i][int(m.Col[p])] = m.Val[p]
		}
	}
	return d
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(2, 2, 1)
	m := b.Build()
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(2, 2); got != 1 {
		t.Errorf("At(2,2) = %v, want 1", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.Add(2, 0, 1)
}

func randomCSR(rng *rand.Rand, n int, density float64) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4+rng.Float64()) // ensure nonzero diagonal
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		m := randomCSR(rng, n, 0.2)
		d := denseFromCSR(m)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		m.MulVec(x, y)
		for i := 0; i < n; i++ {
			want := 0.0
			for j := 0; j < n; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-10 {
				t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
			}
		}
	}
}

func TestMulVecParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	n := 64
	m := randomCSR(rng, n, 0.1)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	serial := make([]float64, n)
	m.MulVec(x, serial)
	for _, p := range []int{1, 2, 3, 7, 16} {
		parallel := make([]float64, n)
		m.MulVecPar(par.Even(n, p), x, parallel)
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("p=%d: y[%d] = %v, want %v", p, i, parallel[i], serial[i])
			}
		}
	}
}

func TestDiag(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(1, 1, 2)
	b.Add(2, 0, 9)
	m := b.Build()
	d := m.Diag()
	if d[0] != 1 || d[1] != 2 || d[2] != 0 {
		t.Errorf("Diag = %v", d)
	}
}

func TestIsSymmetric(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 2)
	b.Add(1, 0, 2)
	b.Add(2, 2, 1)
	if !b.Build().IsSymmetric(1e-12) {
		t.Error("symmetric matrix reported asymmetric")
	}
	b2 := NewBuilder(3)
	b2.Add(0, 1, 2)
	b2.Add(1, 0, 2.5)
	if b2.Build().IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if !NewBuilder(3).Build().IsSymmetric(1e-12) {
		t.Error("zero matrix should be symmetric")
	}
}

func TestPartitionStats(t *testing.T) {
	// 4x4 tridiagonal matrix partitioned into 2 ranks: rank 0 has rows
	// 0-1 and needs x[2] from rank 1 (row 1 references column 2).
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < 3 {
			b.Add(i, i+1, -1)
		}
	}
	m := b.Build()
	stats := m.PartitionStats(par.Even(4, 2))
	if stats[0].Rows != 2 || stats[1].Rows != 2 {
		t.Fatalf("rows = %+v", stats)
	}
	if stats[0].HaloIn != 1 || stats[1].HaloIn != 1 {
		t.Errorf("halo = %d,%d, want 1,1", stats[0].HaloIn, stats[1].HaloIn)
	}
	if stats[0].HaloPeers != 1 || stats[1].HaloPeers != 1 {
		t.Errorf("peers = %d,%d, want 1,1", stats[0].HaloPeers, stats[1].HaloPeers)
	}
	if stats[0].NNZ != 5 || stats[1].NNZ != 5 {
		t.Errorf("nnz = %d,%d, want 5,5", stats[0].NNZ, stats[1].NNZ)
	}
}

func TestDiagonalBlock(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			b.Add(i, j, float64(10*i+j))
		}
	}
	m := b.Build()
	blk := m.DiagonalBlock(1, 3)
	if blk.N != 2 {
		t.Fatalf("block N = %d", blk.N)
	}
	if blk.At(0, 0) != 11 || blk.At(0, 1) != 12 || blk.At(1, 0) != 21 || blk.At(1, 1) != 22 {
		t.Errorf("block contents wrong: %v", denseFromCSR(blk))
	}
}

func TestAtIsZeroOutsidePattern(t *testing.T) {
	b := NewBuilder(5)
	b.Add(2, 3, 7)
	m := b.Build()
	if m.At(2, 3) != 7 {
		t.Error("stored entry missing")
	}
	if m.At(3, 2) != 0 || m.At(0, 0) != 0 {
		t.Error("phantom entries")
	}
}
