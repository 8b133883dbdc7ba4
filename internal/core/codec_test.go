package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
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
// stages (and the label-volume root): a decoder either reports an error
// or yields a value that re-encodes to the very same bytes; it never
// panics, and the shape and index checks mean what it yields cannot
// make a downstream stage index out of range.
func FuzzDecodeArtifact(f *testing.F) {
	codecs := []func([]byte) ([]byte, error){
		reencode(labelsCodec), reencode(edtCodec), reencode(meshedCodec),
		reencode(triMeshCodec), reencode(systemCodec), reencode(interpCodec),
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
	tab, err := preopInterp(ctx, sys, c.Intraop.Grid)
	if err != nil {
		f.Fatal(err)
	}
	for kind, blob := range [][]byte{
		labelsCodec.marshal(labels), edtCodec.marshal(ch), meshedCodec.marshal(m),
		triMeshCodec.marshal(relaxed), systemCodec.marshal(sys), interpCodec.marshal(tab),
	} {
		if again, err := codecs[kind](blob); err != nil || !bytes.Equal(again, blob) {
			f.Fatalf("codec %d does not round-trip its own blob: %v", kind, err)
		}
		f.Add(uint8(kind), blob)
	}

	f.Fuzz(func(t *testing.T, kind uint8, blob []byte) {
		again, err := codecs[int(kind)%len(codecs)](blob)
		if err == nil && !bytes.Equal(again, blob) {
			t.Fatalf("codec %d accepted a blob it re-encodes differently", kind)
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
}

// TestCachedRecomputesDamagedHit plants a checksummed but structurally
// wrong blob under a stage's key: the miss that wrote it reports the
// decode failure, and a later hit on it recomputes instead of failing
// or handing the damage downstream.
func TestCachedRecomputesDamagedHit(t *testing.T) {
	store, err := artifact.New(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := source(labelsCodec, testCase(16).PreopLabels)
	key := edtKey{Saturation: 10}
	damaged := func(ctx context.Context, l *volume.Labels, k edtKey) (edtChannels, error) {
		ch, err := preopEDT(ctx, l, k)
		ch[2] = &volume.Scalar{Grid: volume.NewGrid(1, 1, 1, 1), Data: make([]float32, 1)}
		return ch, err
	}
	if _, err := cached(ctx, store, "preop-edt", damaged, in, key, edtCodec); err == nil {
		t.Fatal("a miss that cannot decode its own blob must fail")
	}
	got, err := cached(ctx, store, "preop-edt", preopEDT, in, key, edtCodec)
	if err != nil {
		t.Fatalf("damaged hit was not recomputed: %v", err)
	}
	if st := store.Stats(); st.Hits != 1 {
		t.Fatalf("second lookup did not hit the planted entry: %+v", st)
	}
	want, _ := preopEDT(ctx, in.val, key)
	if !reflect.DeepEqual(got.val, want) {
		t.Error("recomputed channels differ from a direct computation")
	}
}
