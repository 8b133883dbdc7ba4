package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/obs"
)

// TestSharedArtifactStoreAcrossSessions is the service-level caching
// claim: two sessions opened on the same preoperative volume share the
// injected store, so the second session's registration hits the pure
// preop stages instead of recomputing them, and the results stay
// identical to the uncached session's.
func TestSharedArtifactStoreAcrossSessions(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := artifact.New(artifact.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, Registry: reg, ArtifactStore: store})
	defer svc.Close()

	c := testCase(24, 1)
	for _, id := range []string{"or-1", "or-2"} {
		if err := svc.Open(SessionSpec{ID: id, Config: fastConfig(),
			Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
			t.Fatal(err)
		}
	}

	j1, err := svc.Submit(context.Background(), "or-1", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Misses == 0 {
		t.Fatalf("first registration populated nothing: %+v", st)
	}

	j2, err := svc.Submit(context.Background(), "or-2", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Fatalf("second session shared no cached preop work: %+v", st)
	}
	if len(res1.NodeDisplacements) != len(res2.NodeDisplacements) {
		t.Fatalf("node counts differ: %d vs %d",
			len(res1.NodeDisplacements), len(res2.NodeDisplacements))
	}
	for i, u := range res1.NodeDisplacements {
		if u != res2.NodeDisplacements[i] {
			t.Fatalf("node %d displacement differs between sessions: %v vs %v",
				i, u, res2.NodeDisplacements[i])
		}
	}

	// A spec that brings its own store keeps it: the injection only
	// fills the nil default.
	own, err := artifact.New(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.ArtifactStore = own
	if err := svc.Open(SessionSpec{ID: "or-own", Config: cfg,
		Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	j3, err := svc.Submit(context.Background(), "or-own", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := own.Stats(); st.Misses == 0 {
		t.Fatalf("session-private store was bypassed: %+v", st)
	}

	ts := httptest.NewServer(AdminHandler(svc))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/artifacts: status %d", resp.StatusCode)
	}
	var got artifact.Stats
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Hits == 0 || got.Misses == 0 {
		t.Fatalf("/artifacts reports no traffic: %+v", got)
	}

	// The shared registry carries the cache series alongside the
	// service's own.
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		obs.MetricArtifactHits.String(),
		obs.MetricArtifactMisses.String(),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("registry exposition missing %q", want)
		}
	}
}

// TestArtifactsEndpointWithoutStore pins the uncached deployment shape:
// /artifacts answers 404, not 500 or an empty object masquerading as a
// cache.
func TestArtifactsEndpointWithoutStore(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(AdminHandler(svc))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/artifacts without a store: status %d", resp.StatusCode)
	}
}
