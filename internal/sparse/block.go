package sparse

import (
	"fmt"
	"math/bits"

	"repro/internal/numeric"
	"repro/internal/par"
)

// BlockAssembler is the numeric half of a two-phase finite element
// assembly of a 3-DOF-per-node system. The symbolic phase — the sorted
// node adjacency, handed to NewBlockAssembler — fixes a layout of dense
// 3x3 blocks, one per (node, neighbour) pair; AddBlock then sums element
// blocks straight into that layout, and Compact turns it into a CSR
// matrix. No triplet is ever stored.
//
// Concurrent AddBlock calls are safe as long as they address different
// block rows, which is what a row-block partition of the nodes gives.
type BlockAssembler struct {
	n   int     // block rows (nodes)
	ptr []int   // block row r holds blocks ptr[r]..ptr[r+1]
	col []int32 // block column (neighbour node), ascending within a row
	val []float64
	// mask has bit 3i+j set once a non-zero was added at (i, j) of the
	// block. Compact keeps exactly those positions: an entry that sums
	// to zero stays, an entry every element left at zero does not (on a
	// lattice mesh about a sixth of the full block pattern).
	mask []uint16
}

// NewBlockAssembler allocates zeroed blocks for the given adjacency:
// the neighbours of node r are adj[ptr[r]:ptr[r+1]], strictly ascending.
func NewBlockAssembler(ptr []int, adj []int32) (*BlockAssembler, error) {
	n := len(ptr) - 1
	if n < 0 || ptr[0] != 0 || ptr[n] != len(adj) {
		return nil, fmt.Errorf("sparse: block adjacency: %d offsets for %d neighbours", len(ptr), len(adj))
	}
	for r := 0; r < n; r++ {
		if ptr[r] > ptr[r+1] {
			return nil, fmt.Errorf("sparse: block adjacency: offsets decrease at row %d", r)
		}
		row := adj[ptr[r]:ptr[r+1]]
		for k, c := range row {
			if c < 0 || int(c) >= n || (k > 0 && row[k-1] >= c) {
				return nil, fmt.Errorf("sparse: block adjacency: row %d is not ascending within [0,%d)", r, n)
			}
		}
	}
	return &BlockAssembler{
		n:    n,
		ptr:  ptr,
		col:  adj,
		val:  make([]float64, 9*len(adj)),
		mask: make([]uint16, len(adj)),
	}, nil
}

// AddBlock sums blk into the block at (row, col). It panics when the
// adjacency has no such block: the symbolic phase did not see the
// element the caller is adding.
//
//lint:hotpath
func (a *BlockAssembler) AddBlock(row, col int32, blk *[3][3]float64) {
	lo := a.ptr[row]
	for k, c := range a.col[lo:a.ptr[row+1]] {
		if c != col {
			continue
		}
		p := lo + k
		dst := a.val[9*p : 9*p+9 : 9*p+9]
		m := a.mask[p]
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				v := blk[i][j]
				// Adding a zero changes nothing (no sum here is ever
				// -0), so only the mask needs the test.
				dst[3*i+j] += v
				if numeric.NonZero(v) {
					m |= 1 << (3*i + j)
				}
			}
		}
		a.mask[p] = m
		return
	}
	panic("sparse: AddBlock outside the block adjacency")
}

// Compact builds the 3n x 3n CSR matrix of the positions that received
// a non-zero, with exactly sized arrays. Each rank of pt, a partition of
// the block rows, counts and then copies its own rows.
func (a *BlockAssembler) Compact(pt par.Partition) (*CSR, error) {
	if pt.N != a.n {
		return nil, fmt.Errorf("sparse: compacting %d block rows over a partition of %d", a.n, pt.N)
	}
	m := &CSR{N: 3 * a.n, RowPtr: make([]int64, 3*a.n+1)}
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		for node := lo; node < hi; node++ {
			var cnt [3]int64
			for _, bm := range a.mask[a.ptr[node]:a.ptr[node+1]] {
				cnt[0] += int64(bits.OnesCount16(bm & 0o007))
				cnt[1] += int64(bits.OnesCount16(bm & 0o070))
				cnt[2] += int64(bits.OnesCount16(bm & 0o700))
			}
			copy(m.RowPtr[3*node+1:], cnt[:])
		}
	})
	for i := 0; i < m.N; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	m.Col = make([]int32, m.RowPtr[m.N])
	m.Val = make([]float64, m.RowPtr[m.N])
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		for node := lo; node < hi; node++ {
			a.compactRows(m, node)
		}
	})
	m.checkShape()
	return m, nil
}

// compactRows copies the three matrix rows of one block row.
//
//lint:hotpath
//lint:noescape
func (a *BlockAssembler) compactRows(m *CSR, node int) {
	lo, hi := a.ptr[node], a.ptr[node+1]
	cols := a.col[lo:hi]
	masks := a.mask[lo:hi][:len(cols)]
	for i := 0; i < 3; i++ {
		w := m.RowPtr[3*node+i]
		for k, c := range cols {
			blk := a.val[9*(lo+k)+3*i:][:3]
			rowBits := masks[k] >> (3 * i)
			for j, v := range blk {
				if rowBits&(1<<j) != 0 {
					m.Col[w] = 3*c + int32(j)
					m.Val[w] = v
					w++
				}
			}
		}
	}
}
