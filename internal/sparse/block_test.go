package sparse

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/par"
)

// TestBlockAssemblerMatchesBuilder adds the block rows of random
// elements — blocks with exact zeros, elements added twice, and
// elements followed by their negation — through both constructors, over
// an adjacency that also holds blocks no element touches: the compacted
// matrix must keep exactly the positions Builder keeps (every one that
// received a non-zero, even if it sums to zero) with the same sums.
func TestBlockAssemblerMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(10)
		type element struct {
			nodes [4]int32
			blks  [4][4][3][3]float64
			masks [4][4]uint16
		}
		coupled := make([][]bool, n)
		for r := range coupled {
			coupled[r] = make([]bool, n)
			for c := range coupled[r] {
				coupled[r][c] = rng.Intn(5) == 0 // blocks no element touches
			}
		}
		var elems []element
		for e := 2 + rng.Intn(8); e > 0; e-- {
			var el element
			for a, node := range rng.Perm(n)[:4] {
				el.nodes[a] = int32(node)
			}
			for a, na := range el.nodes {
				for b, nb := range el.nodes {
					coupled[na][nb] = true
					for i := range el.blks[a][b] {
						for j := range el.blks[a][b][i] {
							if rng.Intn(3) > 0 {
								el.blks[a][b][i][j] = rng.NormFloat64()
								el.masks[a][b] |= 1 << (3*i + j)
							}
						}
					}
				}
			}
			elems = append(elems, el)
			switch rng.Intn(3) {
			case 0:
				elems = append(elems, el)
			case 1:
				neg := el // sums to exactly zero, and stays
				for a := range neg.blks {
					for b := range neg.blks[a] {
						for i := range neg.blks[a][b] {
							for j := range neg.blks[a][b][i] {
								neg.blks[a][b][i][j] = -neg.blks[a][b][i][j]
							}
						}
					}
				}
				elems = append(elems, neg)
			}
		}
		ptr := make([]int, n+1)
		var adj []int32
		for r := range coupled {
			for c, ok := range coupled[r] {
				if ok {
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
		for _, el := range elems {
			for ra, r := range el.nodes {
				a.AddBlock(r, &el.nodes, &el.blks[ra], &el.masks[ra])
				for b, c := range el.nodes {
					for i, row := range el.blks[ra][b] {
						for j, v := range row {
							if v != 0 {
								ref.Add(3*int(r)+i, 3*int(c)+j, v)
							}
						}
					}
				}
			}
		}
		store := a.val
		got, err := a.Compact(par.Even(n, 1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Val) > 0 && &got.Val[0] != &store[0] {
			t.Errorf("trial %d: values copied out of the block storage, not compacted in place", trial)
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
	a, err := NewBlockAssembler([]int{0, 3, 4, 5, 6}, []int32{0, 1, 3, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compact(par.Even(5, 1)); err == nil {
		t.Error("partition of the wrong size accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddBlock outside the adjacency did not panic")
		}
	}()
	a.AddBlock(0, &[4]int32{3, 2, 1, 0}, &[4][3][3]float64{}, &[4]uint16{}) // row 0 lacks column 2
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
