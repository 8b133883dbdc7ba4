package fem

import (
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/numeric"
)

// Element shape memos.
//
// Of an element, Tet.Shape's gradients and 6V, Tet.Volume and
// elementStiffness read nothing but five vertex differences — P1−P0,
// P2−P0, P3−P0, P2−P1 and P3−P1; the sixth one Shape forms, P0−P1, is
// the first negated (+0 where that is zero) — and elementStiffness
// reads the material's Lamé pair besides. A lattice mesh repeats a
// handful of shapes over its whole extent (six over the benchmark
// mesh's 134,016 elements), so a pass over the elements keeps a memo
// keyed on the exact bits of those inputs: a hit returns the bits the
// computation would return, by construction. A mesh whose elements all
// differ (a snapped one) would pay a key, a hash and a probe on top of
// every computation — measured, 21 % more rasterization time on the
// snapped 76,041-equation mesh — so a memo watches its own hit rate and turns itself off
// for the rest of its pass once a window of lookups mostly misses. A
// memo has a fixed capacity whatever the element count and belongs to
// the one goroutine that runs the pass.

// memoBits sets a memo's capacity, 1<<memoBits entries.
const memoBits = 6

// memoProbe is how many slots from its home slot a key is looked for
// in; a miss takes the first empty one of them, or else evicts the home
// slot's entry.
const memoProbe = 4

// memoWindow is the number of lookups a memo judges its hit rate over:
// a window in which fewer than half hit turns the memo off.
const memoWindow = 256

// shapeWords is the length of a shape key: the bits of the five vertex
// differences. A stiffness key appends the bits of the Lamé pair.
const shapeWords = 15

type (
	shapeKey     [shapeWords]uint64
	stiffnessKey [shapeWords + 2]uint64
)

// putShapeKey writes t's shape key into k, the differences formed
// exactly as Shape forms them.
func putShapeKey(k []uint64, t *geom.Tet) {
	for i, d := range [5]geom.Vec3{
		t.P[1].Sub(t.P[0]), t.P[2].Sub(t.P[0]), t.P[3].Sub(t.P[0]),
		t.P[2].Sub(t.P[1]), t.P[3].Sub(t.P[1]),
	} {
		k[3*i], k[3*i+1], k[3*i+2] = math.Float64bits(d.X), math.Float64bits(d.Y), math.Float64bits(d.Z)
	}
}

// homeSlot hashes a key to its home slot. A multiply carries bits
// upward only, so the slot comes from the top bits, and the state is
// rotated before each word: the words of a lattice's shapes (±1, ±2,
// 0) are all low-bit zeros, and without the rotation their product
// would keep nothing but its top 12 bits.
func homeSlot(key []uint64) int {
	h := uint64(0)
	for _, w := range key {
		h = (bits.RotateLeft64(h, 26) ^ w) * 0x9e3779b97f4a7c15
	}
	return int(h >> (64 - memoBits))
}

// memo is a fixed-capacity memo: 1<<memoBits slots, open addressing
// within a probe window. It only ever returns a slot whose key equals
// the one asked for, so an eviction costs a recomputation, never
// exactness. Once off, its callers compute without a key.
type memo[K comparable, V any] struct {
	keys [1 << memoBits]K
	used [1 << memoBits]bool
	vals [1 << memoBits]V
	// tried and hits count the lookups of the current window.
	tried, hits int
	off         bool
}

// lookup returns key's slot and whether it holds key's value. On a miss
// the slot has been claimed for key, and the caller fills it.
func (m *memo[K, V]) lookup(key *K, home int) (*V, bool) {
	if m.tried == memoWindow {
		// Judged here, the window's last lookup settled; this one
		// still looks, whatever the verdict.
		m.off = 2*m.hits < memoWindow
		m.tried, m.hits = 0, 0
	}
	m.tried++
	for d := 0; d < memoProbe; d++ {
		i := (home + d) & (1<<memoBits - 1)
		if !m.used[i] {
			m.keys[i], m.used[i] = *key, true
			return &m.vals[i], false
		}
		if m.keys[i] == *key {
			m.hits++
			return &m.vals[i], true
		}
	}
	m.keys[home] = *key
	return &m.vals[home], false
}

// shapeEntry is Tet.Shape's result for one key. Its A coefficients are
// those of the element that filled it: they depend on where an element
// is, so shape forms them afresh.
type shapeEntry struct {
	sc  geom.ShapeCoeffs
	err error
}

// shapeMemo memoizes Tet.Shape.
type shapeMemo struct{ memo[shapeKey, shapeEntry] }

// faceBase is, for each vertex i, the vertex Shape anchors the face
// opposite i at (geom's oppositeFace[i][0]).
var faceBase = [4]int{1, 0, 0, 0}

// shape returns t.Shape() bit for bit: gradients, 6V and error from the
// memo, and A[i] formed from them and the anchor vertex exactly as Shape
// forms it.
func (m *shapeMemo) shape(t *geom.Tet) (geom.ShapeCoeffs, error) {
	if m.off {
		return t.Shape()
	}
	var key shapeKey
	putShapeKey(key[:], t)
	e, hit := m.lookup(&key, homeSlot(key[:]))
	if !hit {
		e.sc, e.err = t.Shape()
	}
	if e.err != nil {
		return geom.ShapeCoeffs{}, e.err
	}
	sc := e.sc
	for i, v := range faceBase {
		pj := t.P[v]
		b, c, dz := sc.B[i], sc.C[i], sc.D[i]
		sc.A[i] = -(b*pj.X + c*pj.Y + dz*pj.Z)
	}
	return sc, nil
}

// elementBlocks is one element's stiffness as nodal blocks, with the
// non-zero mask of each block (bit 3i+j of mask[a][b] is set when
// k[a][b][i][j] is not zero): what the assembly scatters.
type elementBlocks struct {
	k    [4][4][3][3]float64
	mask [4][4]uint16
	err  error
}

// stiffnessMemo memoizes elementStiffness and the block masks; spare
// holds the result while the memo is off.
type stiffnessMemo struct {
	memo[stiffnessKey, elementBlocks]
	spare elementBlocks
}

// stiffness returns elementStiffness(*t, mat) with its block masks. The
// result is valid until the next call.
func (m *stiffnessMemo) stiffness(t *geom.Tet, mat Material) (*elementBlocks, error) {
	e := &m.spare
	if !m.off {
		var key stiffnessKey
		putShapeKey(key[:], t)
		lambda, mu := mat.Lame()
		key[shapeWords], key[shapeWords+1] = math.Float64bits(lambda), math.Float64bits(mu)
		var hit bool
		if e, hit = m.lookup(&key, homeSlot(key[:])); hit {
			return e, e.err
		}
	}
	e.k, e.err = elementStiffness(*t, mat)
	e.mask = blockMasks(&e.k)
	return e, e.err
}

// blockMasks is the non-zero mask of each nodal block of k.
func blockMasks(k *[4][4][3][3]float64) (mask [4][4]uint16) {
	for a := range k {
		for b := range k[a] {
			for i := range k[a][b] {
				for j, v := range k[a][b][i] {
					if numeric.NonZero(v) {
						mask[a][b] |= 1 << (3*i + j)
					}
				}
			}
		}
	}
	return mask
}
