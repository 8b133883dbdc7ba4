package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/surface"
	"repro/internal/volume"
)

// reencode decodes a blob with c and encodes the value back.
func reencode[T any](c codec[T]) func([]byte) ([]byte, error) {
	return func(blob []byte) ([]byte, error) {
		v, err := c.unmarshal(blob)
		if err != nil {
			return nil, err
		}
		return c.marshal(v), nil
	}
}

// FuzzDecodeArtifact drives every artifact decoder — the trust boundary
// of the disk cache — with mutations of the real blobs of the five pure
// stages (and the label-volume root), and of operator blobs with one
// invariant broken: a decoder either reports an error or yields a value
// that re-encodes to the very same bytes; it never panics, and the
// shape and index checks mean what it yields cannot make a downstream
// stage index out of range. A decoded operator is put to the first
// uses a session makes of it: a System forked off it, a parallel
// product with its matrix over its DOF partition, and its block-Jacobi
// preconditioner built and applied once.
func FuzzDecodeArtifact(f *testing.F) {
	codecs := []func([]byte) ([]byte, error){
		reencode(labelsCodec), reencode(edtCodec), reencode(meshedCodec),
		reencode(triMeshCodec), reencode(operatorCodec), reencode(interpCodec),
	}

	c := testCase(16)
	ctx := context.Background()
	labels := c.PreopLabels
	ch, err := preopEDT(ctx, labels, edtKey{Saturation: 10})
	if err != nil {
		f.Fatal(err)
	}
	m, err := preopMesh(ctx, labels, meshKey{CellSize: 2})
	if err != nil {
		f.Fatal(err)
	}
	relaxed, err := preopRelax(ctx, pair[*volume.Labels, meshed]{labels, m}, surface.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	sys, err := preopAssemble(ctx, m, assembleKey{Materials: fem.HomogeneousBrain(), Ranks: 2})
	if err != nil {
		f.Fatal(err)
	}
	tab, err := preopInterp(ctx, pair[meshed, *fem.Operator]{m, sys}, c.Intraop.Grid)
	if err != nil {
		f.Fatal(err)
	}
	for kind, blob := range [][]byte{
		labelsCodec.marshal(labels), edtCodec.marshal(ch), meshedCodec.marshal(m),
		triMeshCodec.marshal(relaxed), operatorCodec.marshal(sys), interpCodec.marshal(tab),
	} {
		if again, err := codecs[kind](blob); err != nil || !bytes.Equal(again, blob) {
			f.Fatalf("codec %d does not round-trip its own blob: %v", kind, err)
		}
		f.Add(uint8(kind), blob)
	}
	const operatorKind = 4 // reencode(operatorCodec) in codecs
	for _, d := range damagedOperators(f, cubeOperator(f)) {
		f.Add(uint8(operatorKind), d.blob)
	}

	f.Fuzz(func(t *testing.T, kind uint8, blob []byte) {
		again, err := codecs[int(kind)%len(codecs)](blob)
		if err == nil && !bytes.Equal(again, blob) {
			t.Fatalf("codec %d accepted a blob it re-encodes differently", kind)
		}
		if err != nil || int(kind)%len(codecs) != operatorKind {
			return
		}
		op, err := operatorCodec.unmarshal(blob)
		if err != nil {
			t.Fatalf("the operator blob re-encoded but does not decode: %v", err)
		}
		sys := op.NewSystem(m.Mesh)
		pt := sys.DOFPartition()
		x, y := make([]float64, sys.NumDOF), make([]float64, sys.NumDOF)
		for i := range x {
			x[i] = 1
		}
		sys.K.MulVecPar(pt, x, y)
		if pc, err := solver.NewBlockJacobiILU0(sys.K, pt); err == nil {
			pc.Apply(y, x)
		}
	})
}

// TestDecodersRejectStructuralDamage encodes values that break one
// shape or index invariant each — what a well-framed but wrong disk
// entry would hold — and requires a decode error, not a value a later
// stage would index out of range.
func TestDecodersRejectStructuralDamage(t *testing.T) {
	grid := volume.NewGrid(2, 2, 2, 1)
	nodes := make([]geom.Vec3, 4)
	goodTri := &mesh.TriMesh{Verts: make([]geom.Vec3, 3), Tris: [][3]int32{{0, 1, 2}}, NodeID: []int32{0, 1, 2}}
	goodMesh := &mesh.Mesh{Nodes: nodes, Tets: [][4]int32{{0, 1, 2, 3}}, TetLabel: []volume.Label{volume.LabelBrain}}
	scalar := func(n int) *volume.Scalar { return &volume.Scalar{Grid: grid, Data: make([]float32, n)} }
	try := func(name string, blob []byte, codec func([]byte) ([]byte, error)) {
		t.Helper()
		if _, err := codec(blob); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := reencode(meshedCodec)(meshedCodec.marshal(meshed{goodMesh, goodTri})); err != nil {
		t.Fatalf("well-formed mesh rejected: %v", err)
	}
	try("labels shorter than grid", labelsCodec.marshal(&volume.Labels{Grid: grid, Data: make([]volume.Label, 7)}), reencode(labelsCodec))
	try("edt channel shorter than grid", edtCodec.marshal(edtChannels{scalar(8), scalar(7), scalar(8)}), reencode(edtCodec))
	try("edt channels on different grids", edtCodec.marshal(edtChannels{scalar(8), scalar(8),
		{Grid: volume.NewGrid(1, 1, 1, 1), Data: make([]float32, 1)}}), reencode(edtCodec))
	try("tet node out of range", meshedCodec.marshal(meshed{
		&mesh.Mesh{Nodes: nodes, Tets: [][4]int32{{0, 1, 2, 4}}, TetLabel: goodMesh.TetLabel}, goodTri}), reencode(meshedCodec))
	try("tet labels shorter than tets", meshedCodec.marshal(meshed{
		&mesh.Mesh{Nodes: nodes, Tets: goodMesh.Tets}, goodTri}), reencode(meshedCodec))
	try("surface node id beyond the mesh", meshedCodec.marshal(meshed{goodMesh,
		&mesh.TriMesh{Verts: goodTri.Verts, Tris: goodTri.Tris, NodeID: []int32{0, 1, 4}}}), reencode(meshedCodec))
	try("triangle vertex out of range", triMeshCodec.marshal(
		&mesh.TriMesh{Verts: goodTri.Verts, Tris: [][3]int32{{0, 1, 3}}, NodeID: goodTri.NodeID}), reencode(triMeshCodec))
	try("negative surface node id", triMeshCodec.marshal(
		&mesh.TriMesh{Verts: goodTri.Verts, Tris: goodTri.Tris, NodeID: []int32{0, -1, 2}}), reencode(triMeshCodec))
	try("foreign codec version", append([]byte{9, 0, 0, 0}, triMeshCodec.marshal(goodTri)[4:]...), reencode(triMeshCodec))
	try("trailing bytes", append(triMeshCodec.marshal(goodTri), 0), reencode(triMeshCodec))

	// The eliminated operator: re-encode a real one with one of its parts
	// broken at a time.
	op := cubeOperator(t)
	if _, err := reencode(operatorCodec)(operatorCodec.marshal(op)); err != nil {
		t.Fatalf("well-formed operator rejected: %v", err)
	}
	if !bytes.Equal(operatorPartsCodec.marshal(partsOf(op)), operatorCodec.marshal(op)) {
		t.Fatal("the parts encoder does not reproduce the operator blob")
	}
	for _, d := range damagedOperators(t, op) {
		try(d.name, d.blob, reencode(operatorCodec))
	}
	// A flag byte that is neither 0 nor 1 would re-encode differently.
	blob := operatorCodec.marshal(op)
	i := bytes.Index(blob, flagBytes(op.Constrained))
	if i < 0 {
		t.Fatal("constrained flags not found in the operator blob")
	}
	blob[i] = 2
	try("constrained flag that is neither 0 nor 1", blob, reencode(operatorCodec))
}

// cubeOperator is the eliminated operator of a 5x5x5 brain cube meshed
// with cell size 2, on two ranks.
func cubeOperator(tb testing.TB) *fem.Operator {
	tb.Helper()
	cube := volume.NewLabels(volume.NewGrid(5, 5, 5, 1))
	for i := range cube.Data {
		cube.Data[i] = volume.LabelBrain
	}
	cm, err := preopMesh(context.Background(), cube, meshKey{CellSize: 2})
	if err != nil {
		tb.Fatal(err)
	}
	op, err := preopAssemble(context.Background(), cm, assembleKey{Materials: fem.HomogeneousBrain(), Ranks: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return op
}

// operatorParts is what an operator blob holds, as separate arrays that
// a test can break one at a time.
type operatorParts struct {
	n           int
	rowPtr      []int64
	col         []int32
	val         []float64
	pt          par.Partition
	constrained []bool
	ptr         []int
	rows        []int32
	coef        []float64
}

// operatorPartsCodec writes whatever parts it is handed, in the
// operator blob's layout.
var operatorPartsCodec = codec[operatorParts]{enc: func(w *codecWriter, p operatorParts) {
	k := &sparse.CSR{N: p.n, RowPtr: p.rowPtr, Col: p.col, Val: p.val}
	encodeOperatorParts(w, k, p.pt, p.constrained, p.ptr, p.rows, p.coef)
}}

// partsOf copies op's parts, so breaking them leaves op alone.
func partsOf(op *fem.Operator) operatorParts {
	ptr, rows, coef := op.OperatorParts()
	pt := op.NodePart
	pt.Starts = slices.Clone(pt.Starts)
	return operatorParts{op.K.N, slices.Clone(op.K.RowPtr), slices.Clone(op.K.Col), slices.Clone(op.K.Val), pt,
		slices.Clone(op.Constrained), slices.Clone(ptr), slices.Clone(rows), slices.Clone(coef)}
}

// damagedOperator is a well-framed operator blob with one invariant
// broken.
type damagedOperator struct {
	name string
	blob []byte
}

// damagedOperators encodes op with one part broken at a time: the
// matrix's indices, the node partition and the Dirichlet bookkeeping.
// op must be eliminated on two ranks.
func damagedOperators(tb testing.TB, op *fem.Operator) []damagedOperator {
	tb.Helper()
	good := partsOf(op)
	// The first coupled column, which must own rows[0] and rows[1].
	col := slices.IndexFunc(good.ptr[1:], func(end int) bool { return end > 0 })
	if col < 0 || good.ptr[col+1] < 2 || good.pt.P != 2 {
		tb.Fatal("want two ranks and a first coupled column with two rows or more")
	}
	var out []damagedOperator
	for _, tc := range []struct {
		name string
		make func(p *operatorParts)
	}{
		{"matrix column outside the matrix", func(p *operatorParts) { p.col[len(p.col)-1] = int32(p.n) }},
		{"negative matrix column", func(p *operatorParts) { p.col[0] = -1 }},
		{"matrix row pointers decreasing", func(p *operatorParts) { p.rowPtr[2] = p.rowPtr[1] - 1 }},
		{"matrix row pointers starting past zero", func(p *operatorParts) { p.rowPtr[0] = 1 }},
		{"partition starts decreasing", func(p *operatorParts) { p.pt.Starts[1] = p.pt.N + 1 }},
		{"partition starts not ending at N", func(p *operatorParts) { p.pt.Starts[2]-- }},
		{"partition starting past zero", func(p *operatorParts) { p.pt.Starts[0] = 1 }},
		{"constrained flags shorter than the DOFs", func(p *operatorParts) { p.constrained = p.constrained[1:] }},
		{"coupling without column pointers", func(p *operatorParts) { p.ptr = nil }},
		{"column pointers not ending at the coupling length", func(p *operatorParts) { p.rows, p.coef = p.rows[1:], p.coef[1:] }},
		{"column pointers decreasing", func(p *operatorParts) { p.ptr[col+2] = p.ptr[col+1] - 1 }},
		{"column pointers starting past zero", func(p *operatorParts) { p.ptr[0] = 1 }},
		{"coupling row outside the matrix", func(p *operatorParts) { p.rows[len(p.rows)-1] = int32(p.n) }},
		{"negative coupling row", func(p *operatorParts) { p.rows[0] = -1 }},
		{"coupling rows not ascending in a column", func(p *operatorParts) { p.rows[0], p.rows[1] = p.rows[1], p.rows[0] }},
		{"fewer coefficients than coupling rows", func(p *operatorParts) { p.coef = p.coef[1:] }},
	} {
		p := partsOf(op)
		tc.make(&p)
		out = append(out, damagedOperator{tc.name, operatorPartsCodec.marshal(p)})
	}
	return out
}

func flagBytes(flags []bool) []byte {
	b := make([]byte, len(flags))
	for i, f := range flags {
		if f {
			b[i] = 1
		}
	}
	return b
}

// TestCachedQuarantinesDamagedEntry plants a well-framed disk entry
// whose payload is not what the stage's decoder accepts (what another
// build, or damage the frame checksum cannot see, leaves behind): the
// first lookup quarantines it, recomputes through the store as a miss
// and rewrites the entry, so a fresh Store on the directory decodes it
// and hits — where the entry used to stay in place and make every later
// session fail the decode and recompute.
func TestCachedQuarantinesDamagedEntry(t *testing.T) {
	dir := t.TempDir()
	open := func() *artifact.Store {
		t.Helper()
		store, err := artifact.New(artifact.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	in := source(labelsCodec, testCase(16).PreopLabels)
	key := edtKey{Saturation: 10}
	want, _ := preopEDT(context.Background(), in.val, key)
	// lookup runs preop-edt through store under a traced span and
	// returns the channels with the span's cache-hit attribute.
	lookup := func(store *artifact.Store, fn func(context.Context, *volume.Labels, edtKey) (edtChannels, error)) (edtChannels, any) {
		t.Helper()
		var buf bytes.Buffer
		ctx, span := obs.StartSpan(obs.WithTracer(context.Background(), obs.NewTracer(&buf)), obs.SpanPipelineRun)
		got, err := cached(ctx, store, "preop-edt", fn, in, key, edtCodec)
		span.End(err)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ReadSpans(&buf)
		if err != nil || len(recs) != 1 {
			t.Fatalf("lookup span: %v (%d records)", err, len(recs))
		}
		return got.val, recs[0].Attrs["preop-edt_cache_hit"]
	}
	mustNotRun := func(context.Context, *volume.Labels, edtKey) (edtChannels, error) {
		t.Error("stage recomputed although a good entry is on disk")
		return want, nil
	}

	// Plant: a stage whose output the decoder rejects (its third channel
	// is on another grid) writes a checksummed entry under the real key.
	damaged := func(ctx context.Context, l *volume.Labels, k edtKey) (edtChannels, error) {
		ch, err := preopEDT(ctx, l, k)
		ch[2] = &volume.Scalar{Grid: volume.NewGrid(1, 1, 1, 1), Data: make([]float32, 1)}
		return ch, err
	}
	lookup(open(), damaged)

	first := open()
	got, hit := lookup(first, preopEDT)
	if hit != false {
		t.Errorf("lookup of the damaged entry recorded preop-edt_cache_hit=%v, want false", hit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recomputed channels differ from a direct computation")
	}
	if st := first.Stats(); st.Hits != 0 || st.Misses != 1 || st.DiskFaults != 1 {
		t.Errorf("damaged entry: %+v, want 0 hits, 1 miss and 1 disk fault", st)
	}

	second := open()
	got, hit = lookup(second, mustNotRun)
	if hit != true {
		t.Errorf("lookup of the rewritten entry recorded preop-edt_cache_hit=%v, want true", hit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("decoded channels differ from a direct computation")
	}
	if st := second.Stats(); st.Hits != 1 || st.Misses != 0 || st.DiskFaults != 0 {
		t.Errorf("rewritten entry: %+v, want 1 hit and nothing else", st)
	}
}

// pinnedBlobs holds, per codec version, the SHA-256 of every artifact
// blob the size-24 phantom of TestResultDigestsPinned produces under
// fastConfig. A version's row is written once and never edited: an
// encoding change must bump codecVersion and add a row.
var pinnedBlobs = map[uint32]map[string]string{
	7: {
		"labels":          "8f0e91238707089ce83f08f7030a984f8330afea73be179847b5abadceea1e19",
		"edt":             "a8154f81db699e785b3bce688bbd91540f1527ef544ecb79fb9c6449a3ef94d1",
		"meshed":          "a9e5aca563a08745ff8289d65f5e7cebce8af4c8b690b7f6a76d584d411ee8da",
		"relaxed surface": "861193424501591efa8801693b3eba729ebd9d57e5e13c6baf35a1b67b152282",
		"operator":        "29ae00290fb0dd76603e91848a7eef478b526ceb70abbae8cbcd5ec633a223d3",
		"interp table":    "417e3abbbbfcbed5a9ec0a9f44edfc0bbb4b92e22b4d83439051046f92b87254",
	},
}

// TestArtifactBlobsPinned holds the codecs to their version: a blob
// whose digest moves while codecVersion stays is an encoding change
// that would mix with an older build's store entries.
func TestArtifactBlobsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating point (no fused multiply-add)")
	}
	want, ok := pinnedBlobs[codecVersion]
	if !ok {
		t.Fatalf("codecVersion %d has no pinned blob digests", codecVersion)
	}
	p := phantom.DefaultParams(24)
	p.ShiftMagnitude = 3
	c := phantom.Generate(p)
	cfg := fastConfig()
	ctx := context.Background()
	labels := c.PreopLabels
	ch, err := preopEDT(ctx, labels, edtKey{Saturation: cfg.EDTSaturation})
	if err != nil {
		t.Fatal(err)
	}
	m, err := preopMesh(ctx, labels, meshKey{CellSize: cfg.MeshCellSize, BCC: cfg.UseBCCMesh})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := preopRelax(ctx, pair[*volume.Labels, meshed]{labels, m}, cfg.Surface)
	if err != nil {
		t.Fatal(err)
	}
	op, err := preopAssemble(ctx, m, assembleKey{Materials: cfg.Materials, Ranks: cfg.Ranks})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := preopInterp(ctx, pair[meshed, *fem.Operator]{m, op}, c.Intraop.Grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		codec string
		blob  []byte
	}{
		{"labels", labelsCodec.marshal(labels)},
		{"edt", edtCodec.marshal(ch)},
		{"meshed", meshedCodec.marshal(m)},
		{"relaxed surface", triMeshCodec.marshal(relaxed)},
		{"operator", operatorCodec.marshal(op)},
		{"interp table", interpCodec.marshal(tab)},
	} {
		sum := sha256.Sum256(b.blob)
		if got := hex.EncodeToString(sum[:]); got != want[b.codec] {
			t.Errorf("%s codec: blob digest %s at codecVersion %d, want %s", b.codec, got, codecVersion, want[b.codec])
		}
	}
}
