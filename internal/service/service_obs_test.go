package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// stageDeadline is a context whose deadline "expires" on demand — it
// pins deadline expiry to a pipeline stage instead of wall-clock time,
// so degradation tests behave the same on any machine.
type stageDeadline struct {
	done chan struct{}
	once sync.Once
}

func newStageDeadline() *stageDeadline {
	return &stageDeadline{done: make(chan struct{})}
}

func (c *stageDeadline) expire() { c.once.Do(func() { close(c.done) }) }

func (c *stageDeadline) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stageDeadline) Done() <-chan struct{}       { return c.done }
func (c *stageDeadline) Value(any) any               { return nil }

func (c *stageDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// expireAt is a span sink that fires fn when the named pipeline stage
// starts — on the pipeline's own goroutine, so expiry lands on that
// stage boundary however the host schedules the test.
type expireAt struct {
	stage string
	fn    func()
}

func (h expireAt) SpanStarted(i obs.SpanInfo) {
	if i.Stage && i.Name == h.stage {
		h.fn()
	}
}
func (expireAt) SpanEnded(obs.FinishedSpan) {}

func TestServiceShedCounter(t *testing.T) {
	// The load shed of shedOne is *counted* on the registry, and is not
	// a scan.
	svc, c := openOR(t, Options{Workers: 1, QueueDepth: 1}, fastConfig(), 7)
	j1, j2, release := shedOne(t, svc, c.Intraop, c.Intraop, JobRegister)
	release()

	if v := count(svc, obs.MetricShed); v != 1 {
		t.Errorf("brainsim_shed_total = %v, want 1", v)
	}
	if o := outcomes(svc); o["completed"] != 2 {
		t.Errorf("scan outcomes = %v, want 2 completed (shed submissions are not scans)", o)
	}
	// A shed submission never got a job id: the next accepted job must
	// not skip a number.
	if j1.ID != "j000001" || j2.ID != "j000002" {
		t.Errorf("job ids = %q, %q, want j000001, j000002", j1.ID, j2.ID)
	}
}

func TestServiceMidDegradationCountsDegradedOnly(t *testing.T) {
	// A deadline that expires during the solve stage triggers the
	// degrade-to-rigid fallback. The scan must be counted under Degraded
	// alone — not double-counted as Canceled/Failed, which is what the
	// naive "ctx expired → canceled" accounting did.
	svc := New(Options{Workers: 1})
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
		t.Fatalf("degraded scan should still deliver: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not degraded; deadline missed the solve stage")
	}
	if o := outcomes(svc); o["degraded"] != 1 || o["canceled"] != 0 || o["failed"] != 0 {
		t.Errorf("brainsim_scans_total by outcome = %v, want degraded alone", o)
	}
}

func TestServiceSolveNotConverged(t *testing.T) {
	// A solver starved of iterations delivers a (poor) result without
	// converging; the service must surface that as a distinct metric
	// rather than folding it into clean completions.
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 9)
	cfg := fastConfig()
	cfg.Solver.MaxIter = 1
	cfg.Solver.Tol = 1e-14
	if err := svc.Open(SessionSpec{ID: "or", Config: cfg, Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	res, err := wait(context.Background(), svc.Submit, "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if res.SolveStats.Converged {
		t.Skip("solve converged in one iteration; cannot exercise the metric")
	}
	if v := svc.Registry().Counter(obs.MetricSolverSolves,
		obs.Label{Key: "converged", Value: "false"}).Value(); v != 1 {
		t.Errorf(`brainsim_solver_solves_total{converged="false"} = %v, want 1`, v)
	}
}

func TestAdminEndpoints(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 10)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(context.Background(), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(AdminHandler(svc))
	defer ts.Close()
	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE brainsim_stage_seconds histogram",
		`brainsim_stage_seconds_bucket{stage="biomechanical simulation",le="+Inf"} 1`,
		`brainsim_scans_total{outcome="completed"} 1`,
		"brainsim_assembly_imbalance_max",
		"brainsim_workers_alive 1",
		"brainsim_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// A scraper asking for OpenMetrics gets the one exposition there is.
	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	omBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics asked for OpenMetrics: content type %q", ct)
	}
	if strings.Contains(string(omBody), "# EOF") || !strings.Contains(string(omBody), "# TYPE brainsim_scans_total counter") {
		t.Errorf("/metrics asked for OpenMetrics did not answer 0.0.4 text:\n%s", omBody)
	}

	code, body, _ = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d, body %s", code, body)
	}
	var health struct {
		OK           bool `json:"ok"`
		WorkersAlive int  `json:"workers_alive"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if !health.OK || health.WorkersAlive != 1 {
		t.Errorf("/healthz = %+v", health)
	}

	if code, body, _ = get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz: status %d, body %s", code, body)
	}

	code, body, _ = get("/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs: status %d", code)
	}
	var list []JobStatus
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("/jobs not JSON: %v", err)
	}
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("/jobs = %+v, want one entry %s", list, j.ID)
	}

	code, body, _ = get("/jobs/" + j.ID)
	if code != http.StatusOK {
		t.Fatalf("/jobs/%s: status %d", j.ID, code)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/jobs/%s not JSON: %v", j.ID, err)
	}
	if st.State != "done" || len(st.Stages) != len(core.Stages) {
		t.Errorf("/jobs/%s = %+v, want done with %d stages", j.ID, st, len(core.Stages))
	}
	solveSeen := false
	for _, s := range st.Stages {
		if !s.Done {
			t.Errorf("stage %q not done in finished job", s.Stage)
		}
		if s.Stage == core.StageSolve && s.Flops > 0 {
			solveSeen = true
		}
	}
	if !solveSeen {
		t.Error("solve stage carries no assembly flops on /jobs/{id}")
	}

	if code, _, _ = get("/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("/jobs/nope: status %d, want 404", code)
	}

	if code, body, _ = get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status %d", code)
	}
	if code, _, _ = get("/debug/pprof/profile?seconds=1"); code != http.StatusOK {
		t.Errorf("/debug/pprof/profile: status %d, want 200", code)
	}
}

func TestJobStatusLifecycle(t *testing.T) {
	// Status must be callable at every point of the job's life; use the
	// session-lock stall to observe the queued→running transition.
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 11)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	ms := svc.sessions["or"]
	svc.mu.Unlock()
	ms.gate <- struct{}{} // stall the worker on the session gate
	j, err := svc.Submit(context.Background(), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.Status().State == "queued" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := j.Status(); st.State != "running" {
		t.Errorf("state = %q, want running", st.State)
	}
	<-ms.gate // release the worker
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != "done" || st.Error != "" || st.QueueWaitMS < 0 {
		t.Errorf("final status = %+v", st)
	}
	if got, err := svc.Job(j.ID); err != nil || got != j {
		t.Errorf("Job(%q) = %v, %v", j.ID, got, err)
	}
	if _, err := svc.Job("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job err = %v, want ErrUnknownJob", err)
	}
}
