package core

// Binary codecs for the content-addressed artifact store: deterministic
// little-endian round-trips for the preop-pure stage outputs (scalar
// volumes, label volumes, tetrahedral and triangle meshes, the
// eliminated FEM operator, the interpolation table). Floats are stored
// by their IEEE-754 bit patterns, so decode(encode(x)) is bit-identical
// to x — the property that makes a value read back from the disk tier
// equivalent to the one a miss computed (in one process both are the
// same value; see cached).
//
// The decoders sit on the trust boundary of the disk tier: a blob whose
// frame checksum passes may still be structurally wrong, so every
// decoder checks the shape and index invariants the downstream stages
// index by, and reports a violation as a decode error (the store then
// quarantines the entry and recomputes) rather than letting a later
// stage panic.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/volume"
)

// codecVersion is folded into every content key (see cached) and
// written at the head of every stage blob; bump it when any encoding
// below or the key derivation changes so stale store entries are plain
// misses.
//
// v2: added the assembled-system and interpolation-table codecs (the
// preop-assemble and preop-interp cache stages).
// v3: keys derive from typed stage arguments (preop-interp keys on the
// scan grid, not the scan), and a blob is one framed payload.
// v4: no encoding changed; geom.Tet.Shape went from elimination to a
// closed form, which on a mesh with off-lattice nodes rounds the assembled system and
// the interpolation weights differently in the last bit, so an older
// build's blobs must miss rather than mix with this one's.
// v5: preop-assemble stores the Dirichlet-eliminated operator (matrix,
// constrained set, coupling block) and no load vector; a stage output's
// content hash is the SHA-256 of its blob.
// v6: preop-assemble's counters drop the per-rank bytes-sent and message
// arrays, which nothing wrote.
// v7: preop-assemble stores no assembly work counters: they describe the
// assembly that ran, which a store hit did not, so they stay on the
// assembled System and its fem.assemble span.
const codecVersion = 7

// codec is an artifact type's encoder/decoder pair, attached to the
// type once (the vars below). A decoder reports damage through the
// reader's sticky error.
type codec[T any] struct {
	enc func(*codecWriter, T)
	dec func(*codecReader) T
}

var (
	labelsCodec   = codec[*volume.Labels]{encodeLabels, decodeLabels}
	edtCodec      = codec[edtChannels]{encodeEDT, decodeEDT}
	meshedCodec   = codec[meshed]{encodeMeshed, decodeMeshed}
	triMeshCodec  = codec[*mesh.TriMesh]{encodeTriMesh, decodeTriMesh}
	operatorCodec = codec[*fem.Operator]{encodeOperator, decodeOperator}
	interpCodec   = codec[*fem.InterpTable]{encodeInterpTable, decodeInterpTable}
)

// marshal frames v as a store blob: the codec version, then the
// payload. The encoder runs twice, first to size the blob and then to
// fill its one exact allocation.
func (c codec[T]) marshal(v T) []byte {
	w := &codecWriter{}
	put(w, u32Layout, codecVersion)
	c.enc(w, v)
	w = &codecWriter{buf: make([]byte, w.n)}
	put(w, u32Layout, codecVersion)
	c.enc(w, v)
	return w.buf
}

// unmarshal decodes a store blob, rejecting a foreign version, anything
// the decoder objects to, and trailing bytes.
func (c codec[T]) unmarshal(blob []byte) (T, error) {
	r := &codecReader{data: blob}
	if v := get(r, "codec version", u32Layout); v != codecVersion {
		r.reject(fmt.Errorf("codec version %d, want %d", v, codecVersion))
	}
	v := c.dec(r)
	if r.err == nil && r.off != len(r.data) {
		r.reject(fmt.Errorf("%d trailing bytes", len(r.data)-r.off))
	}
	if r.err != nil {
		var zero T
		return zero, r.err
	}
	return v, nil
}

// layout is the byte form of one element type, stated once: every
// scalar and every array element of that type is written by put and
// read by get, size bytes each, little-endian. valid, when set, rejects
// the byte forms get would read as a value that put writes differently.
type layout[E any] struct {
	size  int
	put   func([]byte, E)
	get   func([]byte) E
	valid func([]byte) bool
}

var le = binary.LittleEndian

var (
	u32Layout = layout[uint32]{size: 4, put: le.PutUint32, get: le.Uint32}
	u64Layout = layout[uint64]{size: 8, put: le.PutUint64, get: le.Uint64}
	intLayout = layout[int]{size: 8,
		put: func(b []byte, v int) { le.PutUint64(b, uint64(int64(v))) },
		get: func(b []byte) int { return int(int64(le.Uint64(b))) }}
	i32Layout = layout[int32]{size: 4,
		put: func(b []byte, v int32) { le.PutUint32(b, uint32(v)) },
		get: func(b []byte) int32 { return int32(le.Uint32(b)) }}
	i64Layout = layout[int64]{size: 8,
		put: func(b []byte, v int64) { le.PutUint64(b, uint64(v)) },
		get: func(b []byte) int64 { return int64(le.Uint64(b)) }}
	f32Layout = layout[float32]{size: 4,
		put: func(b []byte, v float32) { le.PutUint32(b, math.Float32bits(v)) },
		get: func(b []byte) float32 { return math.Float32frombits(le.Uint32(b)) }}
	f64Layout = layout[float64]{size: 8,
		put: func(b []byte, v float64) { le.PutUint64(b, math.Float64bits(v)) },
		get: func(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) }}
	labelLayout = layout[volume.Label]{size: 1,
		put: func(b []byte, v volume.Label) { b[0] = byte(v) },
		get: func(b []byte) volume.Label { return volume.Label(b[0]) }}
	// A flag is one byte, 0 or 1 (the operator's constrained set).
	flagLayout = layout[bool]{size: 1,
		put: func(b []byte, v bool) {
			b[0] = 0
			if v {
				b[0] = 1
			}
		},
		get:   func(b []byte) bool { return b[0] == 1 },
		valid: func(b []byte) bool { return b[0] <= 1 }}
	vec3Layout = layout[geom.Vec3]{size: 24,
		put: func(b []byte, v geom.Vec3) {
			le.PutUint64(b, math.Float64bits(v.X))
			le.PutUint64(b[8:], math.Float64bits(v.Y))
			le.PutUint64(b[16:], math.Float64bits(v.Z))
		},
		get: func(b []byte) geom.Vec3 {
			return geom.Vec3{
				X: math.Float64frombits(le.Uint64(b)),
				Y: math.Float64frombits(le.Uint64(b[8:])),
				Z: math.Float64frombits(le.Uint64(b[16:])),
			}
		}}
	tetLayout = indexLayout[[4]int32]()
	triLayout = indexLayout[[3]int32]()
)

// indexLayout is the byte form of a tet's or a triangle's node indices:
// int32s back to back.
func indexLayout[T [3]int32 | [4]int32]() layout[T] {
	var n T
	return layout[T]{size: 4 * len(n),
		put: func(b []byte, t T) {
			for j := 0; j < len(t); j++ {
				le.PutUint32(b[4*j:], uint32(t[j]))
			}
		},
		get: func(b []byte) (t T) {
			for j := 0; j < len(t); j++ {
				t[j] = int32(le.Uint32(b[4*j:]))
			}
			return t
		}}
}

// codecWriter counts the bytes written while buf is nil (the sizing
// pass) and stores them at buf[n:] otherwise.
type codecWriter struct {
	buf []byte
	n   int
}

// next claims the next size bytes: the slice to fill, nil on the
// sizing pass.
func (w *codecWriter) next(size int) []byte {
	w.n += size
	if w.buf == nil {
		return nil
	}
	return w.buf[w.n-size : w.n]
}

// put writes one element.
func put[E any](w *codecWriter, l layout[E], v E) {
	if b := w.next(l.size); b != nil {
		l.put(b, v)
	}
}

// putArray writes a length-prefixed array: the element count as a
// uint64, then the elements back to back.
func putArray[E any](w *codecWriter, l layout[E], vs []E) {
	put(w, u64Layout, uint64(len(vs)))
	if b := w.next(l.size * len(vs)); b != nil {
		for i, v := range vs {
			l.put(b[l.size*i:], v)
		}
	}
}

// codecReader decodes with a sticky error: the first malformed read
// poisons the reader, and every later accessor returns zero values, so
// decode paths stay linear and check the error once.
type codecReader struct {
	data []byte
	off  int
	err  error
}

// reject records a structural violation (the first one sticks).
func (r *codecReader) reject(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("core: artifact decode: %w", err)
	}
}

// take claims n bytes of the payload with a single bounds check, so an
// array of any length costs one check.
func (r *codecReader) take(what string, n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) {
		r.reject(fmt.Errorf("truncated %s at offset %d", what, r.off))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// get reads one element.
func get[E any](r *codecReader, what string, l layout[E]) (v E) {
	if vs := getN(r, what, l, 1); vs != nil {
		v = vs[0]
	}
	return v
}

// getArray reads a length-prefixed array. The declared count is checked
// against the bytes left before anything is allocated, so a corrupted
// length cannot drive an enormous allocation.
func getArray[E any](r *codecReader, what string, l layout[E]) []E {
	n := get(r, what+" length", u64Layout)
	if r.err == nil && n > uint64(len(r.data)-r.off)/uint64(l.size) {
		r.reject(fmt.Errorf("truncated %s length at offset %d", what, r.off))
	}
	return getN(r, what, l, int(n))
}

// getN reads n elements, or nothing once the reader has failed.
func getN[E any](r *codecReader, what string, l layout[E], n int) []E {
	b := r.take(what, l.size*n)
	if r.err != nil {
		return nil
	}
	out := make([]E, n)
	for i := range out {
		e := b[l.size*i:]
		if l.valid != nil && !l.valid(e) {
			r.reject(fmt.Errorf("%s %d: invalid byte form %v", what, i, e[:l.size]))
			return nil
		}
		out[i] = l.get(e)
	}
	return out
}

func encodeGrid(w *codecWriter, g volume.Grid) {
	put(w, intLayout, g.NX)
	put(w, intLayout, g.NY)
	put(w, intLayout, g.NZ)
	put(w, vec3Layout, g.Spacing)
	put(w, vec3Layout, g.Origin)
}

func decodeGrid(r *codecReader) volume.Grid {
	return volume.Grid{
		NX: get(r, "grid", intLayout), NY: get(r, "grid", intLayout), NZ: get(r, "grid", intLayout),
		Spacing: get(r, "grid", vec3Layout), Origin: get(r, "grid", vec3Layout),
	}
}

// checkVoxels rejects a volume whose grid is invalid or whose data
// length is not the grid's voxel count.
func (r *codecReader) checkVoxels(what string, g volume.Grid, n int) {
	if r.err != nil {
		return
	}
	if err := g.Validate(); err != nil {
		r.reject(fmt.Errorf("%s: %w", what, err))
	} else if g.Len() != n {
		r.reject(fmt.Errorf("%s: %d values on a %dx%dx%d grid", what, n, g.NX, g.NY, g.NZ))
	}
}

// checkIndices rejects an index array with an entry outside [0, n).
func (r *codecReader) checkIndices(what string, ids []int32, n int) {
	if r.err != nil {
		return
	}
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			r.reject(fmt.Errorf("%s index %d outside [0, %d)", what, id, n))
			return
		}
	}
}

func encodeScalar(w *codecWriter, s *volume.Scalar) {
	encodeGrid(w, s.Grid)
	putArray(w, f32Layout, s.Data)
}

func decodeScalar(r *codecReader) *volume.Scalar {
	s := &volume.Scalar{Grid: decodeGrid(r), Data: getArray(r, "scalar data", f32Layout)}
	r.checkVoxels("scalar volume", s.Grid, len(s.Data))
	return s
}

// edtChannels are the classifier's three spatial localization channels
// (brain, ventricle and CSF saturated distance maps).
type edtChannels [3]*volume.Scalar

func encodeEDT(w *codecWriter, ch edtChannels) {
	put(w, u64Layout, uint64(len(ch)))
	for _, c := range ch {
		encodeScalar(w, c)
	}
}

func decodeEDT(r *codecReader) edtChannels {
	var ch edtChannels
	if n := get(r, "edt channels", u64Layout); n != uint64(len(ch)) {
		r.reject(fmt.Errorf("%d edt channels, want %d", n, len(ch)))
	}
	for i := range ch {
		ch[i] = decodeScalar(r)
		if r.err == nil && !ch[i].Grid.SameShape(ch[0].Grid) {
			r.reject(fmt.Errorf("edt channel %d grid %v differs from %v", i, ch[i].Grid, ch[0].Grid))
		}
	}
	return ch
}

func encodeLabels(w *codecWriter, l *volume.Labels) {
	encodeGrid(w, l.Grid)
	putArray(w, labelLayout, l.Data)
}

func decodeLabels(r *codecReader) *volume.Labels {
	l := &volume.Labels{Grid: decodeGrid(r), Data: getArray(r, "label data", labelLayout)}
	r.checkVoxels("label volume", l.Grid, len(l.Data))
	return l
}

func encodeMesh(w *codecWriter, m *mesh.Mesh) {
	putArray(w, vec3Layout, m.Nodes)
	putArray(w, tetLayout, m.Tets)
	putArray(w, labelLayout, m.TetLabel)
}

func decodeMesh(r *codecReader) *mesh.Mesh {
	m := &mesh.Mesh{
		Nodes:    getArray(r, "mesh nodes", vec3Layout),
		Tets:     getArray(r, "mesh tets", tetLayout),
		TetLabel: getArray(r, "mesh tet labels", labelLayout),
	}
	for _, t := range m.Tets {
		r.checkIndices("mesh tet node", t[:], len(m.Nodes))
	}
	if r.err == nil && len(m.TetLabel) != len(m.Tets) {
		r.reject(fmt.Errorf("%d tet labels for %d tets", len(m.TetLabel), len(m.Tets)))
	}
	return m
}

func encodeTriMesh(w *codecWriter, t *mesh.TriMesh) {
	putArray(w, vec3Layout, t.Verts)
	putArray(w, triLayout, t.Tris)
	putArray(w, i32Layout, t.NodeID)
}

func decodeTriMesh(r *codecReader) *mesh.TriMesh {
	t := &mesh.TriMesh{
		Verts:  getArray(r, "trimesh verts", vec3Layout),
		Tris:   getArray(r, "trimesh tris", triLayout),
		NodeID: getArray(r, "trimesh node ids", i32Layout),
	}
	for _, tri := range t.Tris {
		r.checkIndices("trimesh vertex", tri[:], len(t.Verts))
	}
	// The owning mesh is a separate artifact, so only the lower bound of
	// a node id is checkable here (decodeMeshed checks the upper one;
	// fem.PatchDirichlet rejects an out-of-range boundary node).
	r.checkIndices("trimesh node id", t.NodeID, math.MaxInt)
	if r.err == nil && len(t.NodeID) != len(t.Verts) {
		r.reject(fmt.Errorf("%d node ids for %d surface vertices", len(t.NodeID), len(t.Verts)))
	}
	return t
}

// meshed is preop-mesh's output: the tetrahedral mesh and its brain
// surface, one artifact because one stage produces both.
type meshed struct {
	Mesh *mesh.Mesh
	Surf *mesh.TriMesh
}

func encodeMeshed(w *codecWriter, m meshed) {
	encodeMesh(w, m.Mesh)
	encodeTriMesh(w, m.Surf)
}

func decodeMeshed(r *codecReader) meshed {
	m := meshed{Mesh: decodeMesh(r), Surf: decodeTriMesh(r)}
	r.checkIndices("brain surface node id", m.Surf.NodeID, len(m.Mesh.Nodes))
	return m
}

// encodeOperator serializes the Dirichlet-eliminated FEM operator: the
// CSR stiffness matrix, the node partition, the constrained set (one
// byte per DOF) and the coupling block. The mesh is its own artifact,
// and the right-hand side and prescribed values belong to the session
// that forks a System off the operator, so neither is stored.
func encodeOperator(w *codecWriter, o *fem.Operator) {
	bcPtr, bcRows, bcCoef := o.OperatorParts()
	encodeOperatorParts(w, o.K, o.NodePart, o.Constrained, bcPtr, bcRows, bcCoef)
}

func encodeOperatorParts(w *codecWriter, k *sparse.CSR, pt par.Partition,
	constrained []bool, bcPtr []int, bcRows []int32, bcCoef []float64) {
	put(w, intLayout, k.N)
	putArray(w, i64Layout, k.RowPtr)
	putArray(w, i32Layout, k.Col)
	putArray(w, f64Layout, k.Val)
	put(w, intLayout, pt.N)
	put(w, intLayout, pt.P)
	putArray(w, intLayout, pt.Starts)
	putArray(w, flagLayout, constrained)
	putArray(w, intLayout, bcPtr)
	putArray(w, i32Layout, bcRows)
	putArray(w, f64Layout, bcCoef)
}

// decodeOperator reconstructs the operator. The matrix's row pointers
// (from 0, never decreasing) and columns (inside the matrix) are
// checked here; the validating constructors (sparse.CSRFromParts,
// fem.OperatorFromParts) check the array lengths, the node partition
// and the Dirichlet bookkeeping. Each reports an error, not a panic, so
// a drifted blob fails the decode and the store recomputes.
func decodeOperator(r *codecReader) *fem.Operator {
	n := get(r, "csr n", intLayout)
	rowPtr := getArray(r, "csr rowptr", i64Layout)
	col := getArray(r, "csr col", i32Layout)
	val := getArray(r, "csr val", f64Layout)
	for i, p := range rowPtr {
		if i == 0 && p != 0 || i > 0 && p < rowPtr[i-1] {
			r.reject(fmt.Errorf("csr row pointer %d of row %d does not ascend from 0", p, i))
			break
		}
	}
	r.checkIndices("csr column", col, n)
	pt := par.Partition{N: get(r, "partition", intLayout), P: get(r, "partition", intLayout)}
	pt.Starts = getArray(r, "partition starts", intLayout)
	constrained := getArray(r, "constrained flags", flagLayout)
	// An eliminated operator always has NumDOF+1 column pointers, so an
	// empty list is the unconstrained operator's nil.
	bcPtr := getArray(r, "coupling pointers", intLayout)
	if len(bcPtr) == 0 {
		bcPtr = nil
	}
	bcRows := getArray(r, "coupling rows", i32Layout)
	bcCoef := getArray(r, "coupling coefficients", f64Layout)
	if r.err != nil {
		return nil
	}
	k, err := sparse.CSRFromParts(n, rowPtr, col, val)
	if err != nil {
		r.reject(err)
		return nil
	}
	o, err := fem.OperatorFromParts(k, pt, constrained, bcPtr, bcRows, bcCoef)
	if err != nil {
		r.reject(err)
		return nil
	}
	return o
}

func encodeInterpTable(w *codecWriter, t *fem.InterpTable) {
	g, vox, nodes, weights := t.TableParts()
	encodeGrid(w, g)
	putArray(w, i32Layout, vox)
	putArray(w, i32Layout, nodes)
	putArray(w, f64Layout, weights)
}

func decodeInterpTable(r *codecReader) *fem.InterpTable {
	g := decodeGrid(r)
	vox := getArray(r, "interp vox", i32Layout)
	nodes := getArray(r, "interp nodes", i32Layout)
	weights := getArray(r, "interp weights", f64Layout)
	// The node count belongs to the mesh artifact; only the lower bound
	// of a node index is checkable here.
	r.checkIndices("interp node", nodes, math.MaxInt)
	if err := g.Validate(); err != nil {
		r.reject(fmt.Errorf("interp grid: %w", err))
	} else {
		r.checkIndices("interp voxel", vox, g.Len())
	}
	if r.err != nil {
		return nil
	}
	t, err := fem.InterpTableFromParts(g, vox, nodes, weights)
	if err != nil {
		r.reject(err)
	}
	return t
}
