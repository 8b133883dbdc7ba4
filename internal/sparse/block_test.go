package sparse

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/par"
)

// TestBlockAssemblerMatchesBuilder adds random 3x3 blocks — with exact
// zeros, and with pairs that cancel — through both constructors: the
// compacted matrix must keep exactly the positions Builder keeps (every
// one that received a non-zero, even if it sums to zero) with the same
// sums.
func TestBlockAssemblerMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		ptr := make([]int, n+1)
		var adj []int32
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if c == r || rng.Intn(3) == 0 {
					adj = append(adj, int32(c))
				}
			}
			ptr[r+1] = len(adj)
		}
		a, err := NewBlockAssembler(ptr, adj)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewBuilder(3 * n)
		add := func(r int, c int32, blk [3][3]float64) {
			a.AddBlock(int32(r), c, &blk)
			for i, row := range blk {
				for j, v := range row {
					if v != 0 {
						ref.Add(3*r+i, 3*int(c)+j, v)
					}
				}
			}
		}
		for r := 0; r < n; r++ {
			for _, c := range adj[ptr[r]:ptr[r+1]] {
				mode := rng.Intn(5)
				if mode == 0 {
					continue // a block no element touches
				}
				for rep := 0; rep < 3; rep++ {
					var blk, neg [3][3]float64
					for i := range blk {
						for j := range blk[i] {
							if rng.Intn(3) > 0 {
								blk[i][j] = rng.NormFloat64()
								neg[i][j] = -blk[i][j]
							}
						}
					}
					add(r, c, blk)
					if mode == 1 {
						add(r, c, neg) // sums to exactly zero, and stays
						break
					}
				}
			}
		}
		got, err := a.Compact(par.Even(n, 1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Build()
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("trial %d: compacted matrix differs from Builder's\n got %+v\nwant %+v", trial, got, want)
		}
		if cap(got.Val) != len(got.Val) || cap(got.Col) != len(got.Col) {
			t.Errorf("trial %d: output not exactly sized", trial)
		}
	}
}

func TestBlockAssemblerRejectsBadInput(t *testing.T) {
	for name, c := range map[string]struct {
		ptr []int
		adj []int32
	}{
		"no offsets":        {nil, nil},
		"total mismatch":    {[]int{0, 1}, []int32{0, 0}},
		"decreasing offset": {[]int{0, 2, 1, 2}, []int32{0, 1}},
		"unsorted row":      {[]int{0, 2, 2}, []int32{1, 0}},
		"duplicate":         {[]int{0, 2, 2}, []int32{1, 1}},
		"out of range":      {[]int{0, 1}, []int32{1}},
	} {
		if _, err := NewBlockAssembler(c.ptr, c.adj); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	a, err := NewBlockAssembler([]int{0, 1, 2}, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compact(par.Even(3, 1)); err == nil {
		t.Error("partition of the wrong size accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddBlock outside the adjacency did not panic")
		}
	}()
	a.AddBlock(0, 1, &[3][3]float64{})
}

// TestBuilderBuildExactlySized: the matrix must not pin the
// triplet-sized scratch.
func TestBuilderBuildExactlySized(t *testing.T) {
	b := NewBuilder(3)
	for rep := 0; rep < 50; rep++ {
		b.Add(rep%3, 2-rep%3, 1)
	}
	m := b.Build()
	if m.NNZ() != 3 || cap(m.Val) != 3 || cap(m.Col) != 3 {
		t.Errorf("nnz %d, cap(Val) %d, cap(Col) %d; want 3 each", m.NNZ(), cap(m.Val), cap(m.Col))
	}
}
