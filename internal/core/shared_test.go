package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/phantom"
)

// The tests of the shared preoperative operator: what the store hands
// out is one value per artifact per process, every session forks its
// own solve state off it, and nothing a session does writes it.

// shiftScans generates the scans of one streamed case at size n and
// voxel size h mm: the baseline at a peak shift of three voxels and two
// later ones at five and six.
func shiftScans(n int, h float64) []*phantom.Case {
	var scans []*phantom.Case
	for _, shift := range []float64{3, 5, 6} {
		p := phantom.DefaultParams(n)
		p.Spacing, p.ShiftMagnitude = h, shift*h
		scans = append(scans, phantom.Generate(p))
	}
	return scans
}

// residentBlobs encodes the five preoperative artifacts a session's
// baseline holds — with a store, the resident values themselves.
func residentBlobs(b *baseline) [][]byte {
	meshCodec := codec[*mesh.Mesh]{enc: encodeMesh}
	return [][]byte{
		edtCodec.marshal(b.edt), meshCodec.marshal(b.mesh), triMeshCodec.marshal(b.relaxedSurf),
		operatorCodec.marshal(b.sys.Operator), interpCodec.marshal(b.interp),
	}
}

// sharesArtifacts reports whether two baselines hold the same five
// values (not merely equal ones).
func sharesArtifacts(a, b *baseline) bool {
	return a.edt == b.edt && a.mesh == b.mesh && a.relaxedSurf == b.relaxedSurf &&
		a.sys.Operator == b.sys.Operator && a.interp == b.interp
}

func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.NodeDisplacements) != len(want.NodeDisplacements) {
		t.Fatalf("%s: %d node displacements, want %d", what, len(got.NodeDisplacements), len(want.NodeDisplacements))
	}
	for i, u := range want.NodeDisplacements {
		if got.NodeDisplacements[i] != u {
			t.Fatalf("%s: node %d displacement %v, want %v", what, i, got.NodeDisplacements[i], u)
		}
	}
	for i, v := range want.Warped.Data {
		if got.Warped.Data[i] != v {
			t.Fatalf("%s: warped voxel %d is %v, want %v", what, i, got.Warped.Data[i], v)
		}
	}
}

func openStore(t *testing.T, dir string) *artifact.Store {
	t.Helper()
	store, err := artifact.New(artifact.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// registerWith registers c in a fresh session on store.
func registerWith(t *testing.T, store *artifact.Store, c *phantom.Case) *Session {
	t.Helper()
	cfg := fastConfig()
	cfg.ArtifactStore = store
	return runStream(t, cfg, viaBand, c).sess
}

// stream runs scans through sess: a registration of the first, then an
// update per later scan.
func stream(ctx context.Context, sess *Session, scans []*phantom.Case) ([]*Result, error) {
	out := make([]*Result, len(scans))
	for i, c := range scans {
		step := sess.Update
		if i == 0 {
			step = sess.Register
		}
		var err error
		if out[i], err = step(ctx, c.Intraop); err != nil {
			return out, fmt.Errorf("scan %d: %w", i, err)
		}
	}
	return out, nil
}

// sameResults compares two streams scan by scan.
func sameResults(t *testing.T, what string, got, want []*Result) {
	t.Helper()
	for i := range want {
		sameResult(t, fmt.Sprintf("%s, scan %d", what, i), got[i], want[i])
	}
}

// TestDiskTierDecodesOncePerProcess pins the one path that still runs
// the decoders: a fresh Store on a populated directory serves a
// registration from five disk entries, and every later session in the
// process shares the values that first registration decoded, each with
// its own solve state. Both lattices. (That a disk hit delivers the
// populate run's bits is TestFastPathsMatchReference's disk-hit path.)
func TestDiskTierDecodesOncePerProcess(t *testing.T) {
	c := shiftScans(24, 1)[0]
	for _, bcc := range []bool{false, true} {
		cfg := fastConfig()
		cfg.UseBCCMesh = bcc
		dir := t.TempDir()
		cfg.ArtifactStore = openStore(t, dir)
		runStream(t, cfg, viaBand, c)

		store := openStore(t, dir)
		cfg.ArtifactStore = store
		first := runStream(t, cfg, viaBand, c).sess
		if st := store.Stats(); st.Hits != 5 || st.Misses != 0 || st.Entries != 5 {
			t.Fatalf("BCC %v: first session on a fresh Store: %+v, want 5 hits, no miss, 5 resident entries", bcc, st)
		}
		for i := 2; i <= 3; i++ {
			sess := runStream(t, cfg, viaBand, c).sess
			if !sharesArtifacts(sess.base, first.base) {
				t.Errorf("BCC %v: session %d holds its own copy of an artifact: it was decoded again", bcc, i)
			}
			if sess.base.sys == first.base.sys || &sess.base.sys.F[0] == &first.base.sys.F[0] {
				t.Errorf("BCC %v: session %d shares its solve state with the first", bcc, i)
			}
		}
		if st := store.Stats(); st.Hits != 15 || st.Misses != 0 || st.DiskFaults != 0 {
			t.Errorf("BCC %v: three sessions: %+v, want 15 hits and nothing else", bcc, st)
		}
	}
}

// TestConcurrentSessionsFactorizeOnce opens four sessions at once on an
// operator no solve has touched (a fresh Store on a populated
// directory): the block-Jacobi ILU(0) set-up runs once, three of the
// four fem.solve spans report the shared factors, and every result is
// the store-less one.
func TestConcurrentSessionsFactorizeOnce(t *testing.T) {
	c := testCase(24)
	want, err := registerCase(context.Background(), fastConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	registerWith(t, openStore(t, dir), c)

	const sessions = 4
	store := openStore(t, dir)
	var (
		wg     sync.WaitGroup
		traces [sessions]bytes.Buffer
		sess   [sessions]*Session
		res    [sessions]*Result
	)
	for i := range sess {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := obs.WithTracer(context.Background(), obs.NewTracer(&traces[i]))
			cfg := fastConfig()
			cfg.ArtifactStore = store
			s, err := NewSession(cfg, c.Preop, c.PreopLabels)
			if err == nil {
				sess[i] = s
				res[i], err = s.Register(ctx, c.Intraop)
			}
			if err != nil {
				t.Errorf("session %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	pcHits := 0
	for i := range sess {
		sameResult(t, fmt.Sprintf("session %d", i), res[i], want)
		if !sharesArtifacts(sess[i].base, sess[0].base) {
			t.Errorf("session %d does not share session 0's artifacts", i)
		}
		recs, err := obs.ReadSpans(&traces[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Name == obs.SpanFEMSolve.String() && r.Attrs["pc_cache_hit"] == true {
				pcHits++
			}
		}
	}
	if pcHits != sessions-1 {
		t.Errorf("%d of %d solves report pc_cache_hit, want one factorization and every other solve a hit", pcHits, sessions)
	}
}

// TestSharedArtifactsAreNeverWritten streams four sessions on one store
// at once, each a registration and two updates, beside the store-less
// twin of that sequence. Run it under the race detector (check.sh's
// short race gate does): a write to a resident artifact is a reported
// race there, and here a changed encoding or a displacement that is not
// the twin's.
func TestSharedArtifactsAreNeverWritten(t *testing.T) {
	scans := shiftScans(16, 1)
	ctx := context.Background()
	want := runStream(t, fastConfig(), viaBand, scans...).res

	store := openStore(t, "")
	populate := registerWith(t, store, scans[0])
	before := residentBlobs(populate.base)

	const sessions = 4
	var (
		wg   sync.WaitGroup
		sess [sessions]*Session
		got  [sessions][]*Result
	)
	for i := range sess {
		cfg := fastConfig()
		cfg.ArtifactStore = store
		var err error
		if sess[i], err = NewSession(cfg, scans[0].Preop, scans[0].PreopLabels); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = stream(ctx, sess[i], scans); err != nil {
				t.Errorf("session %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range sess {
		if !sharesArtifacts(sess[i].base, populate.base) {
			t.Errorf("session %d does not share the resident artifacts", i)
		}
		sameResults(t, fmt.Sprintf("session %d", i), got[i], want)
	}
	for i, blob := range residentBlobs(populate.base) {
		if !bytes.Equal(blob, before[i]) {
			t.Errorf("resident artifact %d re-encodes differently after the sessions ran", i)
		}
	}
}
