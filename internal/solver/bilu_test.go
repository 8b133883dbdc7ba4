package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/par"
	"repro/internal/sparse"
)

// oracleBlock is one dense 3x3 block of the node-block oracle.
type oracleBlock struct {
	col int
	v   [3][3]float64
}

// oracleBILU is BILU(0) stated the slow way: every block row a sorted
// list of dense [3][3] blocks (its diagonal block included), factored
// and applied in plain 3x3 loops that sum each product's terms left to
// right.
type oracleBILU struct {
	rows [][]oracleBlock
	diag []int // the diagonal block's index in its row
	dInv [][3][3]float64
}

// newOracleBILU0 factors the whole of a over 3x3 node blocks.
func newOracleBILU0(a *sparse.CSR) (*oracleBILU, error) {
	nb := a.N / 3
	f := &oracleBILU{rows: make([][]oracleBlock, nb), diag: make([]int, nb), dInv: make([][3][3]float64, nb)}
	for I := 0; I < nb; I++ {
		blocks := map[int]*[3][3]float64{}
		for i := 0; i < 3; i++ {
			for p := a.RowPtr[3*I+i]; p < a.RowPtr[3*I+i+1]; p++ {
				c := int(a.Col[p])
				if blocks[c/3] == nil {
					blocks[c/3] = new([3][3]float64)
				}
				blocks[c/3][i][c%3] = a.Val[p]
			}
		}
		for c, v := range blocks {
			f.rows[I] = append(f.rows[I], oracleBlock{c, *v})
		}
		sort.Slice(f.rows[I], func(x, y int) bool { return f.rows[I][x].col < f.rows[I][y].col })
		f.diag[I] = -1
		for k, b := range f.rows[I] {
			if b.col == I {
				f.diag[I] = k
			}
		}
		if f.diag[I] < 0 {
			return nil, fmt.Errorf("solver: node %d has no diagonal block", I)
		}
	}
	mul := func(x, y [3][3]float64) (out [3][3]float64) {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				s := x[i][0] * y[0][j]
				for k := 1; k < 3; k++ {
					s += x[i][k] * y[k][j]
				}
				out[i][j] = s
			}
		}
		return out
	}
	for I, row := range f.rows {
		for p := 0; p < f.diag[I]; p++ {
			K := row[p].col
			l := mul(row[p].v, f.dInv[K])
			row[p].v = l
			for _, u := range f.rows[K][f.diag[K]+1:] {
				for q := range row {
					if row[q].col == u.col {
						lu := mul(l, u.v)
						for i := 0; i < 3; i++ {
							for j := 0; j < 3; j++ {
								row[q].v[i][j] -= lu[i][j]
							}
						}
					}
				}
			}
		}
		f.dInv[I] = oracleInvertPivot(row, f.diag[I])
	}
	return f, nil
}

// oracleInvertPivot inverts the pivot block of a finished block row by
// transposed cofactors, perturbing a pivot block without a finite
// inverse as bluFactor documents.
func oracleInvertPivot(row []oracleBlock, diag int) [3][3]float64 {
	invert := func(d [3][3]float64) (inv [3][3]float64, ok bool) {
		var cof [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				cof[i][j] = d[(i+1)%3][(j+1)%3]*d[(i+2)%3][(j+2)%3] - d[(i+1)%3][(j+2)%3]*d[(i+2)%3][(j+1)%3]
			}
		}
		det := d[0][0] * cof[0][0]
		for j := 1; j < 3; j++ {
			det += d[0][j] * cof[0][j]
		}
		r := 1 / det
		ok = true
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				inv[i][j] = cof[j][i] * r
				ok = ok && numeric.Finite(inv[i][j])
			}
		}
		return inv, ok
	}
	d := row[diag].v
	if inv, ok := invert(d); ok {
		return inv
	}
	m := 0.0
	for _, b := range row {
		for _, r := range b.v {
			for _, v := range r {
				m = math.Max(m, math.Abs(v))
			}
		}
	}
	if numeric.Zero(m) {
		m = 1
	}
	delta := 1e-10 * m
	if numeric.Zero(delta) {
		delta = 1e-12
	}
	for i := 0; i < 3; i++ {
		d[i][i] += delta
	}
	if inv, ok := invert(d); ok {
		return inv
	}
	return [3][3]float64{{1 / delta}, {0, 1 / delta}, {0, 0, 1 / delta}}
}

func (f *oracleBILU) solve(r, z []float64) {
	for I, row := range f.rows {
		var y [3]float64
		copy(y[:], r[3*I:3*I+3])
		for _, b := range row[:f.diag[I]] {
			for i := 0; i < 3; i++ {
				s := b.v[i][0] * z[3*b.col]
				for j := 1; j < 3; j++ {
					s += b.v[i][j] * z[3*b.col+j]
				}
				y[i] -= s
			}
		}
		copy(z[3*I:3*I+3], y[:])
	}
	for I := len(f.rows) - 1; I >= 0; I-- {
		var y [3]float64
		copy(y[:], z[3*I:3*I+3])
		for _, b := range f.rows[I][f.diag[I]+1:] {
			for i := 0; i < 3; i++ {
				s := b.v[i][0] * z[3*b.col]
				for j := 1; j < 3; j++ {
					s += b.v[i][j] * z[3*b.col+j]
				}
				y[i] -= s
			}
		}
		for i := 0; i < 3; i++ {
			s := f.dInv[I][i][0] * y[0]
			for j := 1; j < 3; j++ {
				s += f.dInv[I][i][j] * y[j]
			}
			z[3*I+i] = s
		}
	}
}

// flat lays the oracle's factor out as bluFactor stores it: the blocks
// left of each diagonal, those right of it, and the inverted pivots.
func (f *oracleBILU) flat() *bluFactor {
	nb := len(f.rows)
	s := &bluFactor{nb: nb, lPtr: make([]int, nb+1), uPtr: make([]int, nb+1)}
	put := func(dst []float64, v [3][3]float64) []float64 {
		for _, r := range v {
			dst = append(dst, r[:]...)
		}
		return dst
	}
	for I, row := range f.rows {
		for k, b := range row {
			switch {
			case k < f.diag[I]:
				s.lCol, s.lVal = append(s.lCol, int32(b.col)), put(s.lVal, b.v)
			case k > f.diag[I]:
				s.uCol, s.uVal = append(s.uCol, int32(b.col)), put(s.uVal, b.v)
			}
		}
		s.lPtr[I+1], s.uPtr[I+1] = len(s.lCol), len(s.uCol)
		s.dInv = put(s.dInv, f.dInv[I])
	}
	return s
}

// oracleILU is point ILU(0), the factor BILU(0) refines, kept as the
// reference the block factor is weighed against: L and U in one CSR
// with a pointer to each row's diagonal, a zero pivot perturbed to
// 1e-10 times its row's largest magnitude.
type oracleILU struct {
	n      int
	rowPtr []int64
	col    []int32
	val    []float64
	diag   []int64
}

func newOracleILU0(a *sparse.CSR) (*oracleILU, error) {
	n := a.N
	f := &oracleILU{
		n:      n,
		rowPtr: append([]int64(nil), a.RowPtr...),
		col:    append([]int32(nil), a.Col...),
		val:    append([]float64(nil), a.Val...),
		diag:   make([]int64, n),
	}
	for i := 0; i < n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		cols := f.col[lo:hi]
		k := sort.Search(len(cols), func(p int) bool { return cols[p] >= int32(i) })
		if k == len(cols) || cols[k] != int32(i) {
			return nil, fmt.Errorf("solver: row %d has no diagonal entry", i)
		}
		f.diag[i] = lo + int64(k)
	}
	for i := 0; i < n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for p := lo; p < hi; p++ {
			k := int(f.col[p])
			if k >= i {
				break
			}
			pivot := f.val[f.diag[k]]
			if numeric.Zero(pivot) {
				pivot = 1e-12
			}
			lik := f.val[p] / pivot
			f.val[p] = lik
			kLo, kHi := f.diag[k]+1, f.rowPtr[k+1]
			iPos := p + 1
			for q := kLo; q < kHi; q++ {
				cj := f.col[q]
				for iPos < hi && f.col[iPos] < cj {
					iPos++
				}
				if iPos < hi && f.col[iPos] == cj {
					f.val[iPos] -= lik * f.val[q]
				}
			}
		}
		if numeric.Zero(f.val[f.diag[i]]) {
			maxRow := 0.0
			for p := lo; p < hi; p++ {
				maxRow = math.Max(maxRow, math.Abs(f.val[p]))
			}
			if numeric.Zero(maxRow) {
				maxRow = 1
			}
			f.val[f.diag[i]] = 1e-10 * maxRow
		}
	}
	return f, nil
}

func (f *oracleILU) solve(r, z []float64) {
	for i := 0; i < f.n; i++ {
		sum := r[i]
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			sum -= f.val[p] * z[f.col[p]]
		}
		z[i] = sum
	}
	for i := f.n - 1; i >= 0; i-- {
		sum := z[i]
		for p := f.diag[i] + 1; p < f.rowPtr[i+1]; p++ {
			sum -= f.val[p] * z[f.col[p]]
		}
		z[i] = sum / f.val[f.diag[i]]
	}
}

// pointILU0 is block Jacobi with a point ILU(0) (see oracleILU) of each
// rank's diagonal block.
type pointILU0 struct {
	part    par.Partition
	factors []*oracleILU
}

// newPointILU0 factors a's diagonal blocks on pt with point ILU(0).
func newPointILU0(a *sparse.CSR, pt par.Partition) (Preconditioner, error) {
	pc := &pointILU0{part: pt, factors: make([]*oracleILU, pt.P)}
	for r := range pc.factors {
		lo, hi := pt.Range(r)
		f, err := newOracleILU0(diagonalBlock(a, lo, hi))
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", r, err)
		}
		pc.factors[r] = f
	}
	return pc, nil
}

func (pc *pointILU0) Apply(r, z []float64) {
	for rank, f := range pc.factors {
		lo, hi := pc.part.Range(rank)
		f.solve(r[lo:hi], z[lo:hi])
	}
}

func (pc *pointILU0) Name() string { return "point-ilu0" }

// factorsMatchOracle builds the block-Jacobi preconditioner of a on pt
// and checks that every block's factor has the node-block oracle's bits
// on a copy of the block (pattern, L and U values, inverted pivots),
// that BlockNNZ counts its stored entries, and that the
// preconditioner's output has the oracle solve's bits. A node without a
// diagonal block must be an error from both, the lowest-rank one
// reported.
func factorsMatchOracle(a *sparse.CSR, pt par.Partition) error {
	pc, err := NewBlockJacobiILU0(a, pt)
	r := randomRHS(a.N, 7)
	got, want := make([]float64, a.N), make([]float64, a.N)
	if err == nil {
		pc.Apply(r, got)
	}
	for rank := 0; rank < pt.P; rank++ {
		lo, hi := pt.Range(rank)
		if lo == hi {
			if err == nil && pc.factors[rank] != nil {
				return fmt.Errorf("empty block %d has a factor", rank)
			}
			continue
		}
		o, oerr := newOracleBILU0(diagonalBlock(a, lo, hi))
		if oerr != nil {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d: %v", rank, oerr)) {
				return fmt.Errorf("block %d: error %v, oracle %v", rank, err, oerr)
			}
			return nil
		}
		if err != nil {
			continue // a later block's error
		}
		g, w := pc.factors[rank], o.flat()
		if g.nb != w.nb || !slices.Equal(g.lPtr, w.lPtr) || !slices.Equal(g.uPtr, w.uPtr) ||
			!slices.Equal(g.lCol, w.lCol) || !slices.Equal(g.uCol, w.uCol) {
			return fmt.Errorf("block %d: factor pattern differs from the oracle's", rank)
		}
		if !sameBits(g.lVal, w.lVal) || !sameBits(g.uVal, w.uVal) || !sameBits(g.dInv, w.dInv) {
			return fmt.Errorf("block %d: factor values differ from the oracle's", rank)
		}
		if n := pc.BlockNNZ()[rank]; n != int64(len(w.lVal)+len(w.uVal)+len(w.dInv)) {
			return fmt.Errorf("block %d: BlockNNZ %d, the factor stores %d", rank, n, len(w.lVal)+len(w.uVal)+len(w.dInv))
		}
		o.solve(r[lo:hi], want[lo:hi])
	}
	if err != nil {
		return fmt.Errorf("%v, while the oracle factors every block", err)
	}
	if !sameBits(got, want) {
		return fmt.Errorf("preconditioner output differs from the oracle solve")
	}
	return nil
}

// nodePartition is par.Even over the nodes of an n-row 3-DOF-per-node
// matrix, expanded to rows.
func nodePartition(n, p int) par.Partition {
	pt := par.Even(n/3, p)
	starts := make([]int, len(pt.Starts))
	for i, s := range pt.Starts {
		starts[i] = 3 * s
	}
	return par.Partition{N: n, P: p, Starts: starts}
}

// randomBlockMatrix builds a 3-DOF-per-node matrix over nodes nodes,
// each coupled to about perRow others through blocks that store only
// some of their nine entries (as a compacted stiffness block does);
// diagonal entries dominate their rows. The nodes listed in fixed get
// identity rows and lose their columns, as Eliminate leaves them.
func randomBlockMatrix(nodes, perRow int, seed int64, fixed ...int) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	isFixed := make([]bool, nodes)
	for _, n := range fixed {
		isFixed[n] = true
	}
	n := 3 * nodes
	b := sparse.NewBuilder(n)
	rowAbs := make([]float64, n)
	add := func(i, j int, v float64) {
		b.Add(i, j, v)
		rowAbs[i] += math.Abs(v)
	}
	for I := 0; I < nodes; I++ {
		for k := 0; k < perRow/2; k++ {
			J := rng.Intn(nodes)
			if J == I || isFixed[I] || isFixed[J] {
				continue
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if rng.Intn(4) > 0 { // about a quarter of each block left out
						v := rng.NormFloat64()
						add(3*I+i, 3*J+j, v)
						add(3*J+j, 3*I+i, v)
					}
				}
			}
		}
	}
	for I := 0; I < nodes; I++ {
		for i := 0; i < 3; i++ {
			if isFixed[I] {
				b.Add(3*I+i, 3*I+i, 1)
				continue
			}
			for j := 0; j < 3; j++ {
				if j != i && rng.Intn(3) > 0 {
					add(3*I+i, 3*I+j, 0.5*rng.NormFloat64())
				}
			}
		}
	}
	for I := 0; I < nodes; I++ {
		for i := 0; i < 3; i++ {
			if !isFixed[I] {
				b.Add(3*I+i, 3*I+i, rowAbs[3*I+i]+1+rng.Float64())
			}
		}
	}
	return b.Build()
}

// blockDense builds a 3-DOF-per-node matrix from its dense rows.
func blockDense(n int, vals ...float64) *sparse.CSR {
	b := sparse.NewBuilder(n)
	for i, v := range vals {
		if numeric.NonZero(v) {
			b.Add(i/n, i%n, v)
		}
	}
	return b.Build()
}

// TestBILU0MatchesBlockOracle: on 3-DOF-per-node matrices every rank's
// factor has the node-block oracle's bits — pattern, L and U blocks and
// inverted pivots — and so does the preconditioner's output, for 1, 2,
// 3 and 7 node-aligned blocks: random block matrices with partly
// stored blocks, constrained (identity) nodes, singular pivot blocks
// (perturbed once, perturbed to a still-singular block, and subnormal
// ones whose perturbation underflows) and empty ranges, at the end and
// in the middle. A node without a diagonal block is an error from both.
func TestBILU0MatchesBlockOracle(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
	}{
		{"random", randomBlockMatrix(100, 8, 1)},
		{"random-dense-rows", randomBlockMatrix(20, 30, 2)},
		{"constrained-nodes", randomBlockMatrix(60, 8, 3, 0, 1, 7, 30, 31, 59)},
		{"two-nodes", randomBlockMatrix(2, 4, 4)},
		// Node 0's pivot block is singular: d + δI is inverted.
		{"singular-pivot", blockDense(6,
			1, 1, 0, 0.1, 0, 0,
			1, 1, 0, 0, 0.1, 0,
			0, 0, 1, 0, 0, 0.1,
			0.1, 0, 0, 4, 1, 0,
			0, 0.1, 0, 1, 4, 1,
			0, 0, 0.1, 0, 1, 4)},
		// Node 1's pivot block is zero after elimination.
		{"zero-pivot-after-elimination", blockDense(6,
			1, 0, 0, 1, 0, 0,
			0, 1, 0, 0, 1, 0,
			0, 0, 1, 0, 0, 1,
			1, 0, 0, 1, 0, 0,
			0, 1, 0, 0, 1, 0,
			0, 0, 1, 0, 0, 1)},
		// d = diag(0, -1e-10, 1): d + δI is singular too, and the pivot
		// is read as I/δ.
		{"still-singular-after-perturbation", blockDense(3, 0, 0, 0, 0, -1e-10, 0, 0, 0, 1)},
		// δ = 1e-10 times a subnormal row maximum underflows to zero.
		{"subnormal-pivot", blockDense(3, 1e-320, 1e-320, 0, 1e-320, 1e-320, 0, 0, 0, 1e-320)},
	}
	for _, c := range cases {
		mid := 3 * (c.a.N / 6)
		for _, pt := range []par.Partition{
			nodePartition(c.a.N, 1), nodePartition(c.a.N, 2), nodePartition(c.a.N, 3), nodePartition(c.a.N, 7),
			{N: c.a.N, P: 3, Starts: []int{0, mid, mid, c.a.N}}, // an empty middle range
		} {
			if err := factorsMatchOracle(c.a, pt); err != nil {
				t.Errorf("%s, blocks %v: %v", c.name, pt.Starts, err)
			}
		}
	}
	// Node 1's rows touch no column of node 1.
	b := sparse.NewBuilder(6)
	for i := 0; i < 3; i++ {
		b.Add(i, i, 1)
		b.Add(3+i, i, 1)
	}
	missing := b.Build()
	for _, p := range []int{1, 2} {
		if err := factorsMatchOracle(missing, nodePartition(6, p)); err != nil {
			t.Errorf("missing diagonal block, %d blocks: %v", p, err)
		}
	}
	if _, err := NewBlockJacobiILU0(missing, nodePartition(6, 1)); err == nil {
		t.Error("a node without its diagonal block was factorized")
	}
}

// TestBILU0RejectsSplitNode: the constructor takes whole nodes only. A
// partition boundary inside a node, a row count that is not a multiple
// of 3, and a partition that does not cover exactly the matrix's rows
// are errors.
func TestBILU0RejectsSplitNode(t *testing.T) {
	a := randomBlockMatrix(10, 4, 5)
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		pt   par.Partition
		want string
	}{
		{"boundary inside a node", a, par.Even(a.N, 4), "splits a node"},
		{"rows not whole nodes", laplacian1D(10), par.Even(10, 1), "not whole nodes"},
		{"partition over fewer rows", a, nodePartition(a.N-3, 2), "does not cover"},
		{"partition starting past zero", a, par.Partition{N: a.N, P: 2, Starts: []int{3, 15, 30}}, "does not cover"},
		{"partition starts decreasing", a, par.Partition{N: a.N, P: 3, Starts: []int{0, 15, 9, 30}}, "decrease"},
	} {
		if _, err := NewBlockJacobiILU0(c.a, c.pt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := NewBlockJacobiILU0(a, nodePartition(a.N, 4)); err != nil {
		t.Errorf("node-aligned partition: %v", err)
	}
}

// blockClosed is a with an explicit zero at every position of every
// node block it touches: the pattern on which a point ILU(0) is BILU(0)
// in exact arithmetic.
func blockClosed(a *sparse.CSR) *sparse.CSR {
	b := sparse.NewBuilder(a.N)
	for i := 0; i < a.N; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c := int(a.Col[p])
			for k := 0; k < 3; k++ {
				for j := 0; j < 3; j++ {
					b.Add(3*(i/3)+k, 3*(c/3)+j, 0)
				}
			}
			b.Add(i, c, a.Val[p])
		}
	}
	return b.Build()
}

// TestBILU0IsPointILU0OnBlockClosedPattern: BILU(0) and a point ILU(0)
// on the block-closed pattern differ only by rounding: the same
// preconditioned vector to 1e-12 (relative, 2-norm), at 1 and 3 blocks.
// On the compacted pattern the point factor is a different, coarser
// approximation.
func TestBILU0IsPointILU0OnBlockClosedPattern(t *testing.T) {
	for _, a := range []*sparse.CSR{randomBlockMatrix(200, 8, 6), randomBlockMatrix(80, 12, 7, 3, 4, 40)} {
		closed := blockClosed(a)
		r := randomRHS(a.N, 8)
		for _, p := range []int{1, 3} {
			pt := nodePartition(a.N, p)
			blk, err := NewBlockJacobiILU0(a, pt)
			if err != nil {
				t.Fatal(err)
			}
			pnt, err := newPointILU0(closed, pt)
			if err != nil {
				t.Fatal(err)
			}
			got, want := make([]float64, a.N), make([]float64, a.N)
			blk.Apply(r, got)
			pnt.Apply(r, want)
			diff, ref := 0.0, 0.0
			for i := range want {
				diff += (got[i] - want[i]) * (got[i] - want[i])
				ref += want[i] * want[i]
			}
			if rel := math.Sqrt(diff / ref); rel > 1e-12 {
				t.Errorf("%d equations, %d blocks: BILU(0) differs from point ILU(0) on the closed pattern by %.3g", a.N, p, rel)
			}
		}
	}
}

// FuzzBILU0AgainstDense builds small 3-DOF-per-node matrices whose
// node blocks are all touched but stored only in part, and strictly
// diagonally dominant rows: on such a pattern BILU(0) is the exact
// block LU, so one preconditioner application solves the system, and
// it must agree with Gaussian elimination with partial pivoting.
func FuzzBILU0AgainstDense(f *testing.F) {
	f.Add(uint8(2), []byte{10, 200, 30, 90, 250, 1, 127, 0, 3}, []byte{1, 2, 3})
	f.Add(uint8(0), []byte{}, []byte{128})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 255, 255, 255, 255}, []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, entries, rhs []byte) {
		nodes := int(nRaw%4) + 1
		n := 3 * nodes
		dense := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && len(entries) > 0 {
					if raw := entries[(i*n+j)%len(entries)]; raw%3 != 0 { // a third of the entries left out
						dense[i*n+j] = (float64(raw) - 127.5) / 127.5
					}
				}
			}
		}
		b := sparse.NewBuilder(n)
		for i := 0; i < n; i++ {
			rowAbs := 0.0
			for j := 0; j < n; j++ {
				// The first entry of every node block is stored, zero or
				// not, so the block pattern is full.
				if i != j && (numeric.NonZero(dense[i*n+j]) || i%3 == 0 && j%3 == 0) {
					b.Add(i, j, dense[i*n+j])
					rowAbs += math.Abs(dense[i*n+j])
				}
			}
			dense[i*n+i] = rowAbs + 1
			b.Add(i, i, dense[i*n+i])
		}
		a := b.Build()
		rv := make([]float64, n)
		for i := range rv {
			if len(rhs) > 0 {
				rv[i] = (float64(rhs[i%len(rhs)]) - 127.5) / 32
			}
		}
		pc, err := NewBlockJacobiILU0(a, nodePartition(n, 1))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		pc.Apply(rv, got)
		want := denseSolve(n, dense, append([]float64(nil), rv...))
		for i := range want {
			if !numeric.EqAbs(got[i], want[i], 1e-9) && !numeric.EqRel(got[i], want[i], 1e-9) {
				t.Fatalf("x[%d]: BILU(0) %g, dense %g (%d nodes)", i, got[i], want[i], nodes)
			}
		}
		// And GMRES, preconditioned by it, converges in one iteration.
		_, st, err := GMRESContext(context.Background(), a, rv, nil, pc, Options{Tol: 1e-10, Restart: n, MaxIter: 3})
		if err != nil || !st.Converged {
			t.Fatalf("GMRES with the exact factor: err=%v stats=%v", err, st)
		}
	})
}
