package sparse

import (
	"fmt"
	"math/bits"

	"repro/internal/par"
)

// BlockAssembler is the numeric half of a two-phase finite element
// assembly of a 3-DOF-per-node system. The symbolic phase — the sorted
// node adjacency, handed to NewBlockAssembler — fixes a layout of dense
// 3x3 blocks, one per (node, neighbour) pair; AddBlock then sums element
// block rows straight into that layout, and Compact turns it into a CSR
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

// AddBlock sums one element's row of blocks into block row row: blks[b]
// into the block at column cols[b], and masks[b] — the positions of
// blks[b] that hold a non-zero, bit 3i+j for (i, j) — into that block's
// mask. One merge of the columns, in ascending order, against the row's
// ascending adjacency finds all four blocks. It panics when the
// adjacency lacks one: the symbolic phase did not see the element the
// caller is adding.
//
//lint:hotpath
func (a *BlockAssembler) AddBlock(row int32, cols *[4]int32, blks *[4][3][3]float64, masks *[4]uint16) {
	// The four columns in ascending order, each with its index into cols
	// in the low bits: a branch-free sorting network on the packed keys.
	var s [4]int64
	for b, c := range cols {
		s[b] = int64(c)<<2 | int64(b)
	}
	s[0], s[1] = min(s[0], s[1]), max(s[0], s[1])
	s[2], s[3] = min(s[2], s[3]), max(s[2], s[3])
	s[0], s[2] = min(s[0], s[2]), max(s[0], s[2])
	s[1], s[3] = min(s[1], s[3]), max(s[1], s[3])
	s[1], s[2] = min(s[1], s[2]), max(s[1], s[2])
	lo := a.ptr[row]
	adj := a.col[lo:a.ptr[row+1]]
	k := 0
	for _, key := range s {
		c, b := int32(key>>2), key&3
		for k < len(adj) && adj[k] < c {
			k++
		}
		if k == len(adj) || adj[k] != c {
			panic("sparse: AddBlock outside the block adjacency")
		}
		p := lo + k
		// Adding a zero changes nothing (no sum here is ever -0), so the
		// nine values are added unconditionally.
		dst, src := (*[9]float64)(a.val[9*p:]), &blks[b]
		dst[0] += src[0][0]
		dst[1] += src[0][1]
		dst[2] += src[0][2]
		dst[3] += src[1][0]
		dst[4] += src[1][1]
		dst[5] += src[1][2]
		dst[6] += src[2][0]
		dst[7] += src[2][1]
		dst[8] += src[2][2]
		a.mask[p] |= masks[b]
	}
}

// Compact builds the 3n x 3n CSR matrix of the positions that received
// a non-zero. The matrix's values take over the assembler's block
// storage, compacted in place toward its front, so assembly never holds
// the block layout and a copy of it at once; the assembler is spent
// afterwards. Each rank of pt, a partition of the block rows, counts its
// rows, then compacts them at the front of its own stretch of the
// storage; the stretches then move down into place in rank order.
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
	nnz := m.RowPtr[m.N]
	m.Col = make([]int32, nnz)
	// A block row keeps at most the nine entries of each of its blocks,
	// so its compacted entries never reach past its own blocks: written
	// in ascending order from the front of a stretch, they overwrite
	// only blocks already read.
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		shift := int64(9*a.ptr[lo]) - m.RowPtr[3*lo]
		var blocks []float64
		for node := lo; node < hi; node++ {
			blocks = append(blocks[:0], a.val[9*a.ptr[node]:9*a.ptr[node+1]]...)
			a.compactRows(m, node, blocks, shift)
		}
	})
	for r := 1; r < pt.P; r++ {
		lo, hi := pt.Range(r)
		from := 9 * int64(a.ptr[lo])
		copy(a.val[m.RowPtr[3*lo]:m.RowPtr[3*hi]], a.val[from:])
	}
	m.Val = a.val[:nnz:nnz]
	a.val = nil
	m.checkShape()
	return m, nil
}

// compactRows writes the three matrix rows of one block row from
// blocks, a copy of its block values: the entry at position w of the
// matrix puts its column in m.Col[w] and its value in a.val[w+shift].
//
//lint:hotpath
//lint:noescape
func (a *BlockAssembler) compactRows(m *CSR, node int, blocks []float64, shift int64) {
	lo, hi := a.ptr[node], a.ptr[node+1]
	cols := a.col[lo:hi]
	masks := a.mask[lo:hi][:len(cols)]
	for i := 0; i < 3; i++ {
		w := m.RowPtr[3*node+i]
		for k, c := range cols {
			blk := blocks[9*k+3*i:][:3]
			rowBits := masks[k] >> (3 * i)
			for j, v := range blk {
				if rowBits&(1<<j) != 0 {
					m.Col[w] = 3*c + int32(j)
					a.val[w+shift] = v
					w++
				}
			}
		}
	}
}
