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
// closed form, which on a snapped mesh rounds the assembled system and
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
	w.u32(codecVersion)
	c.enc(w, v)
	w = &codecWriter{buf: make([]byte, w.n)}
	w.u32(codecVersion)
	c.enc(w, v)
	return w.buf
}

// unmarshal decodes a store blob, rejecting a foreign version, anything
// the decoder objects to, and trailing bytes.
func (c codec[T]) unmarshal(blob []byte) (T, error) {
	r := &codecReader{data: blob}
	if v := r.u32("codec version"); v != codecVersion {
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

func (w *codecWriter) u64(v uint64) {
	if b := w.next(8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
	}
}

func (w *codecWriter) u32(v uint32) {
	if b := w.next(4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
	}
}

func (w *codecWriter) i64(v int)     { w.u64(uint64(int64(v))) }
func (w *codecWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *codecWriter) f32(v float32) { w.u32(math.Float32bits(v)) }

func (w *codecWriter) vec3(v geom.Vec3) {
	w.f64(v.X)
	w.f64(v.Y)
	w.f64(v.Z)
}

// f64s writes a length-prefixed float64 array — the bulk counterpart of
// codecReader.f64s.
func (w *codecWriter) f64s(vs []float64) {
	w.u64(uint64(len(vs)))
	if b := w.next(8 * len(vs)); b != nil {
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
	}
}

// f32s writes a length-prefixed float32 array.
func (w *codecWriter) f32s(vs []float32) {
	w.u64(uint64(len(vs)))
	if b := w.next(4 * len(vs)); b != nil {
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
	}
}

// i32s writes a length-prefixed int32 array.
func (w *codecWriter) i32s(vs []int32) {
	w.u64(uint64(len(vs)))
	if b := w.next(4 * len(vs)); b != nil {
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	}
}

// labels writes a length-prefixed label array, one byte each.
func (w *codecWriter) labels(vs []volume.Label) {
	w.u64(uint64(len(vs)))
	if b := w.next(len(vs)); b != nil {
		for i, v := range vs {
			b[i] = byte(v)
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

func (r *codecReader) fail(what string) {
	r.reject(fmt.Errorf("truncated %s at offset %d", what, r.off))
}

// reject records a structural violation (the first one sticks).
func (r *codecReader) reject(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("core: artifact decode: %w", err)
	}
}

func (r *codecReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *codecReader) u32(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *codecReader) i64(what string) int     { return int(int64(r.u64(what))) }
func (r *codecReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }
func (r *codecReader) f32(what string) float32 { return math.Float32frombits(r.u32(what)) }

// take claims n bytes of the payload with a single bounds check — the
// bulk-array fast path (the large artifacts are multi-megabyte float
// and index arrays; per-element reads would dominate warm-run decode).
func (r *codecReader) take(what string, n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// f64s decodes a length-prefixed float64 array in bulk.
func (r *codecReader) f64s(what string) []float64 {
	n := r.sliceLen(what, 8)
	b := r.take(what, 8*n)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// f32s decodes a length-prefixed float32 array in bulk.
func (r *codecReader) f32s(what string) []float32 {
	n := r.sliceLen(what, 4)
	b := r.take(what, 4*n)
	if r.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// labels decodes a length-prefixed label array in bulk.
func (r *codecReader) labels(what string) []volume.Label {
	n := r.sliceLen(what, 1)
	b := r.take(what, n)
	if r.err != nil {
		return nil
	}
	out := make([]volume.Label, n)
	for i := range out {
		out[i] = volume.Label(b[i])
	}
	return out
}

// i32s decodes a length-prefixed int32 array in bulk.
func (r *codecReader) i32s(what string) []int32 {
	n := r.sliceLen(what, 4)
	b := r.take(what, 4*n)
	if r.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (r *codecReader) vec3(what string) geom.Vec3 {
	return geom.Vec3{X: r.f64(what), Y: r.f64(what), Z: r.f64(what)}
}

// sliceLen validates a decoded element count against the bytes left,
// so a corrupted length cannot drive an enormous allocation.
func (r *codecReader) sliceLen(what string, elemBytes int) int {
	n := r.u64(what)
	if r.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if n > uint64(len(r.data)-r.off)/uint64(elemBytes) {
		r.fail(what + " length")
		return 0
	}
	return int(n)
}

func encodeGrid(w *codecWriter, g volume.Grid) {
	w.i64(g.NX)
	w.i64(g.NY)
	w.i64(g.NZ)
	w.vec3(g.Spacing)
	w.vec3(g.Origin)
}

func decodeGrid(r *codecReader) volume.Grid {
	return volume.Grid{
		NX: r.i64("grid"), NY: r.i64("grid"), NZ: r.i64("grid"),
		Spacing: r.vec3("grid"), Origin: r.vec3("grid"),
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
	w.f32s(s.Data)
}

func decodeScalar(r *codecReader) *volume.Scalar {
	s := &volume.Scalar{Grid: decodeGrid(r), Data: r.f32s("scalar data")}
	r.checkVoxels("scalar volume", s.Grid, len(s.Data))
	return s
}

// edtChannels are the classifier's three spatial localization channels
// (brain, ventricle and CSF saturated distance maps).
type edtChannels [3]*volume.Scalar

func encodeEDT(w *codecWriter, ch edtChannels) {
	w.u64(uint64(len(ch)))
	for _, c := range ch {
		encodeScalar(w, c)
	}
}

func decodeEDT(r *codecReader) edtChannels {
	var ch edtChannels
	if n := r.u64("edt channels"); n != uint64(len(ch)) {
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
	w.labels(l.Data)
}

func decodeLabels(r *codecReader) *volume.Labels {
	l := &volume.Labels{Grid: decodeGrid(r), Data: r.labels("label data")}
	r.checkVoxels("label volume", l.Grid, len(l.Data))
	return l
}

func encodeVec3s(w *codecWriter, vs []geom.Vec3) {
	w.u64(uint64(len(vs)))
	if b := w.next(24 * len(vs)); b != nil {
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[24*i:], math.Float64bits(v.X))
			binary.LittleEndian.PutUint64(b[24*i+8:], math.Float64bits(v.Y))
			binary.LittleEndian.PutUint64(b[24*i+16:], math.Float64bits(v.Z))
		}
	}
}

func decodeVec3s(r *codecReader, what string) []geom.Vec3 {
	n := r.sliceLen(what, 24)
	b := r.take(what, 24*n)
	if r.err != nil {
		return nil
	}
	vs := make([]geom.Vec3, n)
	for i := range vs {
		vs[i] = geom.Vec3{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b[24*i:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[24*i+8:])),
			Z: math.Float64frombits(binary.LittleEndian.Uint64(b[24*i+16:])),
		}
	}
	return vs
}

func encodeMesh(w *codecWriter, m *mesh.Mesh) {
	encodeVec3s(w, m.Nodes)
	w.u64(uint64(len(m.Tets)))
	if b := w.next(16 * len(m.Tets)); b != nil {
		for i, t := range m.Tets {
			for j, id := range t {
				binary.LittleEndian.PutUint32(b[16*i+4*j:], uint32(id))
			}
		}
	}
	w.labels(m.TetLabel)
}

func decodeMesh(r *codecReader) *mesh.Mesh {
	m := &mesh.Mesh{Nodes: decodeVec3s(r, "mesh nodes")}
	nt := r.sliceLen("mesh tets", 16)
	tb := r.take("mesh tets", 16*nt)
	if r.err == nil {
		m.Tets = make([][4]int32, nt)
		for i := range m.Tets {
			for j := 0; j < 4; j++ {
				m.Tets[i][j] = int32(binary.LittleEndian.Uint32(tb[16*i+4*j:]))
			}
		}
	}
	m.TetLabel = r.labels("mesh tet labels")
	for _, t := range m.Tets {
		r.checkIndices("mesh tet node", t[:], len(m.Nodes))
	}
	if r.err == nil && len(m.TetLabel) != len(m.Tets) {
		r.reject(fmt.Errorf("%d tet labels for %d tets", len(m.TetLabel), len(m.Tets)))
	}
	return m
}

func encodeTriMesh(w *codecWriter, t *mesh.TriMesh) {
	encodeVec3s(w, t.Verts)
	w.u64(uint64(len(t.Tris)))
	for _, tri := range t.Tris {
		for _, id := range tri {
			w.u32(uint32(id))
		}
	}
	w.u64(uint64(len(t.NodeID)))
	for _, id := range t.NodeID {
		w.u32(uint32(id))
	}
}

func decodeTriMesh(r *codecReader) *mesh.TriMesh {
	t := &mesh.TriMesh{Verts: decodeVec3s(r, "trimesh verts")}
	nt := r.sliceLen("trimesh tris", 12)
	t.Tris = make([][3]int32, nt)
	for i := range t.Tris {
		for j := 0; j < 3; j++ {
			t.Tris[i][j] = int32(r.u32("trimesh tris"))
		}
	}
	nn := r.sliceLen("trimesh node ids", 4)
	t.NodeID = make([]int32, nn)
	for i := range t.NodeID {
		t.NodeID[i] = int32(r.u32("trimesh node ids"))
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

func encodeInts(w *codecWriter, vs []int) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.i64(v)
	}
}

func decodeInts(r *codecReader, what string) []int {
	n := r.sliceLen(what, 8)
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.i64(what)
	}
	return vs
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
	w.i64(k.N)
	w.u64(uint64(len(k.RowPtr)))
	if b := w.next(8 * len(k.RowPtr)); b != nil {
		for i, v := range k.RowPtr {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
	}
	w.i32s(k.Col)
	w.f64s(k.Val)
	w.i64(pt.N)
	w.i64(pt.P)
	encodeInts(w, pt.Starts)
	w.u64(uint64(len(constrained)))
	if b := w.next(len(constrained)); b != nil {
		for i, c := range constrained {
			if c {
				b[i] = 1
			}
		}
	}
	encodeInts(w, bcPtr)
	w.i32s(bcRows)
	w.f64s(bcCoef)
}

// decodeOperator reconstructs the operator. The validating constructors
// (sparse.CSRFromParts, fem.OperatorFromParts) check the shape and
// index invariants with errors, not panics, so a drifted blob fails the
// decode and the store recomputes.
func decodeOperator(r *codecReader) *fem.Operator {
	n := r.i64("csr n")
	np := r.sliceLen("csr rowptr", 8)
	pb := r.take("csr rowptr", 8*np)
	rowPtr := make([]int64, np)
	if r.err == nil {
		for i := range rowPtr {
			rowPtr[i] = int64(binary.LittleEndian.Uint64(pb[8*i:]))
		}
	}
	col := r.i32s("csr col")
	val := r.f64s("csr val")
	pt := par.Partition{N: r.i64("partition"), P: r.i64("partition")}
	pt.Starts = decodeInts(r, "partition starts")
	nc := r.sliceLen("constrained flags", 1)
	constrained := make([]bool, nc)
	for i, b := range r.take("constrained flags", nc) {
		if b > 1 {
			r.reject(fmt.Errorf("constrained flag %d of DOF %d", b, i))
			break
		}
		constrained[i] = b == 1
	}
	// An eliminated operator always has NumDOF+1 column pointers, so an
	// empty list is the unconstrained operator's nil.
	bcPtr := decodeInts(r, "coupling pointers")
	if len(bcPtr) == 0 {
		bcPtr = nil
	}
	bcRows := r.i32s("coupling rows")
	bcCoef := r.f64s("coupling coefficients")
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
	w.i32s(vox)
	w.i32s(nodes)
	w.f64s(weights)
}

func decodeInterpTable(r *codecReader) *fem.InterpTable {
	g := decodeGrid(r)
	vox := r.i32s("interp vox")
	nodes := r.i32s("interp nodes")
	weights := r.f64s("interp weights")
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
