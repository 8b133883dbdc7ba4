package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestServiceFlightDumpOnDegraded induces a mid-solve degradation and
// checks the session's flight recorder is frozen into a retrievable
// dump whose records carry the anomalous job's identity — the black box
// a surgeon's post-incident review reads.
func TestServiceFlightDumpOnDegraded(t *testing.T) {
	dumpDir := t.TempDir()
	svc := New(Options{Workers: 1, FlightDumpDir: dumpDir})
	defer svc.Close()
	c := testCase(24, 8)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	ctx := newStageDeadline()
	j, err := svc.Submit(obs.WithSink(ctx, expireAt{core.StageSolve, ctx.expire}), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("result not degraded; deadline missed the solve stage")
	}

	d, err := svc.SessionLastDump("or")
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("degraded job produced no flight dump")
	}
	if d.Trigger != "degraded" || d.SessionID != "or" || d.JobID != j.ID {
		t.Fatalf("dump = trigger %q session %q job %q, want degraded/or/%s",
			d.Trigger, d.SessionID, d.JobID, j.ID)
	}
	if len(d.Records) == 0 {
		t.Fatal("dump holds no records")
	}
	// Every record stamped with a job id must name the anomalous job,
	// and at least one must: the dump has to be joinable to the job.
	matched := 0
	for _, r := range d.Records {
		if r.Job != "" {
			if r.Job != j.ID {
				t.Errorf("record %q carries job %q, want %s", r.Name, r.Job, j.ID)
			}
			matched++
		}
		if r.Session != "" && r.Session != "or" {
			t.Errorf("record %q carries session %q, want or", r.Name, r.Session)
		}
	}
	if matched == 0 {
		t.Error("no dump record is stamped with the job id")
	}
	// The event that fired the trigger is in the ring, under the job's
	// id, naming the interrupted stage.
	foundDegraded := false
	for _, r := range d.Records {
		if r.Kind == "event" && r.Name == obs.EventPipelineDegraded.String() &&
			r.Job == j.ID && r.Attrs["stage"] == core.StageSolve {
			foundDegraded = true
		}
	}
	if !foundDegraded {
		t.Errorf("dump missing the %s event of job %s", obs.EventPipelineDegraded, j.ID)
	}

	// The same dump also landed on disk as JSONL.
	path := filepath.Join(dumpDir, "or-"+j.ID+".jsonl")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("dump file: %v", err)
	}
	defer f.Close()
	recs, err := obs.ReadFlightRecords(f)
	if err != nil {
		t.Fatalf("dump file decode: %v", err)
	}
	if len(recs) != len(d.Records) {
		t.Errorf("dump file has %d records, in-memory dump %d", len(recs), len(d.Records))
	}

	if v := svc.Registry().Counter(obs.MetricFlightDumps,
		obs.Label{Key: "trigger", Value: "degraded"}).Value(); v != 1 {
		t.Errorf(`%s{trigger="degraded"} = %v, want 1`, obs.MetricFlightDumps, v)
	}
}

func TestServiceFlightDumpOnFallback(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 12)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	// An update before any baseline falls back to a full registration.
	if _, err := svc.Update(context.Background(), "or", c.Intraop); err != nil {
		t.Fatal(err)
	}
	d, err := svc.SessionLastDump("or")
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Trigger != "fallback" {
		t.Fatalf("dump = %+v, want trigger fallback", d)
	}
	found := false
	for _, r := range d.Records {
		if r.Kind == "event" && r.Name == obs.EventJobFallback.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("dump missing the %s event", obs.EventJobFallback)
	}
}

func TestServiceFlightDumpOnNonConverged(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 9)
	cfg := fastConfig()
	cfg.Solver.MaxIter = 1
	cfg.Solver.Tol = 1e-14
	if err := svc.Open(SessionSpec{ID: "or", Config: cfg, Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Register(context.Background(), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if res.SolveStats.Converged {
		t.Skip("solve converged in one iteration; cannot exercise the trigger")
	}
	d, err := svc.SessionLastDump("or")
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Trigger != "nonconverged" {
		t.Fatalf("dump = %+v, want trigger nonconverged", d)
	}
	// The solver's own convergence event made it into the black box.
	found := false
	for _, r := range d.Records {
		if r.Kind == "event" && r.Name == obs.EventSolverSolve.String() && r.Attrs["converged"] == false {
			found = true
		}
	}
	if !found {
		t.Errorf("dump missing a non-converged %s event", obs.EventSolverSolve)
	}
}

func TestServiceFlightDumpOnShed(t *testing.T) {
	svc := New(Options{Workers: 1, QueueDepth: 1})
	defer svc.Close()
	c := testCase(24, 7)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	ms := svc.sessions["or"]
	svc.mu.Unlock()
	ms.gate <- struct{}{} // stall the worker on the session gate

	j1, err := svc.Submit(context.Background(), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(svc.queue) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	j2, err := svc.Submit(context.Background(), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), "or", c.Intraop); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// The shed fired its dump at submit time, before the queue drains.
	d, err := svc.SessionLastDump("or")
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Trigger != "shed" || d.JobID != "" {
		t.Fatalf("dump = %+v, want trigger shed with no job id", d)
	}
	<-ms.gate
	for _, j := range []*Job{j1, j2} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Errorf("job failed: %v", err)
		}
	}
}

// TestSessionsAdminEndpoints exercises the /sessions admin surface:
// listing, the live flight-recorder ring as JSONL, the last-dump JSON
// form, and the 404 distinctions.
func TestSessionsAdminEndpoints(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 5)
	if err := svc.Open(SessionSpec{ID: "or-a", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register(context.Background(), "or-a", c.Intraop); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(AdminHandler(svc))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/sessions")
	if code != http.StatusOK {
		t.Fatalf("/sessions = %d", code)
	}
	var sessions []SessionStatus
	if err := json.Unmarshal(body, &sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].ID != "or-a" {
		t.Fatalf("sessions = %+v", sessions)
	}
	if sessions[0].Scans != 1 || !sessions[0].HasBaseline {
		t.Errorf("session status = %+v, want 1 scan with baseline", sessions[0])
	}
	if sessions[0].FlightRecords == 0 || sessions[0].FlightTotal == 0 {
		t.Errorf("session status shows an empty flight recorder after a scan: %+v", sessions[0])
	}

	code, body = get("/sessions/or-a/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("/sessions/or-a/flightrecorder = %d", code)
	}
	recs, err := obs.ReadFlightRecords(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("flight JSONL decode: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("live ring served empty after a scan")
	}

	// A clean scan leaves no anomaly dump: distinct 404.
	if code, _ := get("/sessions/or-a/flightrecorder?dump=last"); code != http.StatusNotFound {
		t.Errorf("dump=last on a clean session = %d, want 404", code)
	}
	// Unknown session: 404 on both forms.
	if code, _ := get("/sessions/nope/flightrecorder"); code != http.StatusNotFound {
		t.Errorf("unknown session = %d, want 404", code)
	}
	if code, _ := get("/sessions/nope/flightrecorder?dump=last"); code != http.StatusNotFound {
		t.Errorf("unknown session dump = %d, want 404", code)
	}

	// Induce a fallback; the dump becomes retrievable.
	if _, err := svc.Update(context.Background(), "or-a", c.Intraop); err != nil {
		t.Fatal(err)
	}
	// or-a has a baseline now, so force the anomaly on a fresh session.
	if err := svc.Open(SessionSpec{ID: "or-b", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Update(context.Background(), "or-b", c.Intraop); err != nil {
		t.Fatal(err)
	}
	code, body = get("/sessions/or-b/flightrecorder?dump=last")
	if code != http.StatusOK {
		t.Fatalf("dump=last after fallback = %d", code)
	}
	var dump FlightDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trigger != "fallback" || dump.SessionID != "or-b" || len(dump.Records) == 0 {
		t.Fatalf("dump = trigger %q session %q records %d", dump.Trigger, dump.SessionID, len(dump.Records))
	}
}

// TestJobRetentionEviction bounds the admin job index: with retention 2
// a third scan evicts the oldest finished job and counts the eviction.
func TestJobRetentionEviction(t *testing.T) {
	svc := New(Options{Workers: 1, JobRetention: 2})
	defer svc.Close()
	c := testCase(24, 6)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := svc.Submit(context.Background(), "or", c.Intraop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	jobs := svc.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(jobs))
	}
	if _, err := svc.Job(ids[0]); err == nil {
		t.Errorf("oldest job %s still addressable after eviction", ids[0])
	}
	for _, id := range ids[1:] {
		if _, err := svc.Job(id); err != nil {
			t.Errorf("job %s evicted, want retained: %v", id, err)
		}
	}
	if v := svc.Registry().Counter(obs.MetricJobsEvicted).Value(); v != 1 {
		t.Errorf("%s = %v, want 1", obs.MetricJobsEvicted, v)
	}
}

// TestDefaultJobRetentionIsCapacity: left unset, the index holds as many
// jobs as the service can have accepted at once — workers plus queue
// slots — so the results it pins do not grow with the scans it has run.
func TestDefaultJobRetentionIsCapacity(t *testing.T) {
	svc := New(Options{Workers: 1, QueueDepth: 1})
	defer svc.Close()
	c := testCase(24, 6)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Register(context.Background(), "or", c.Intraop); err != nil {
			t.Fatal(err)
		}
	}
	if jobs := svc.Jobs(); len(jobs) != 2 {
		t.Errorf("retained %d jobs, want Workers+QueueDepth = 2", len(jobs))
	}
}
