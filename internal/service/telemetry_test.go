package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestStageDurationStatedOnce runs one traced job through the service
// and checks the five views of every stage's duration — Result.Timings,
// the JSONL trace record, the flight record, /jobs/{id} and the stage
// histogram — report the same measurement exactly, not clock readings
// taken microseconds apart.
func TestStageDurationStatedOnce(t *testing.T) {
	svc := New(Options{Workers: 1, FlightRecorderSize: 1 << 14})
	defer svc.Close()
	c := testCase(24, 21)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	j, err := svc.Submit(obs.WithTracer(context.Background(), obs.NewTracer(&trace)), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	traced := map[string]obs.SpanRecord{}
	spans, err := obs.ReadSpans(&trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Attrs["kind"] == "stage" {
			traced[s.Name] = s
		}
	}
	flown := map[string]obs.SpanRecord{}
	recs, err := svc.SessionFlightRecords("or")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == "" && r.Attrs["kind"] == "stage" {
			flown[r.Name] = r
		}
	}
	rec := httptest.NewRecorder()
	AdminHandler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+j.ID, nil))
	var status JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}

	if len(res.Timings) != len(core.Stages) || len(status.Stages) != len(core.Stages) {
		t.Fatalf("%d timings, %d job stages, want %d", len(res.Timings), len(status.Stages), len(core.Stages))
	}
	for i, tm := range res.Timings {
		ms := float64(tm.Elapsed) / float64(time.Millisecond)
		if tm.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", tm.Name, tm.Elapsed)
		}
		if got := traced[tm.Name]; got.DurMS != ms || got.Job != j.ID {
			t.Errorf("%s: trace says %v ms (job %q), Timings %v ms", tm.Name, got.DurMS, got.Job, ms)
		}
		if got := flown[tm.Name]; got.DurMS != ms || got.ID != traced[tm.Name].ID {
			t.Errorf("%s: flight record says %v ms (span %d), Timings %v ms", tm.Name, got.DurMS, got.ID, ms)
		}
		if got := status.Stages[i]; got.Stage != tm.Name || !got.Done || got.ElapsedMS != ms {
			t.Errorf("%s: /jobs/{id} says %+v, Timings %v ms", tm.Name, got, ms)
		}
		h := svc.Registry().Histogram(obs.MetricStageSeconds, obs.Label{Key: "stage", Value: tm.Name}).Summary()
		if h.Count != 1 || h.Sum != tm.Elapsed.Seconds() {
			t.Errorf("%s: histogram says %+v, Timings %v s", tm.Name, h, tm.Elapsed.Seconds())
		}
	}
}

// metricFamilies scrapes /metrics and lists the family names announced.
func metricFamilies(t *testing.T, svc *Service) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	AdminHandler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var names []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(name)[0])
		}
	}
	return names
}

// TestMetricsVocabularyAndView pins the audited /metrics vocabulary —
// the families one registration, one update and one shed submission
// leave behind — and that /healthz's shed rate is a view of the same
// registry counters.
func TestMetricsVocabularyAndView(t *testing.T) {
	svc := New(Options{Workers: 1, QueueDepth: 1})
	defer svc.Close()
	c1, c2 := streamCase(24, 22)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c1.Preop, PreopLabels: c1.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	_, _, release := shedOne(t, svc, c1.Intraop, c2.Intraop, JobUpdate)
	release()
	runtime.GC() // so the scrape-time runtime sample has a pause to report

	want := []string{
		"brainsim_flightrecorder_dumps_total",
		"brainsim_jobs_evicted_total",
		"brainsim_queue_capacity",
		"brainsim_queue_depth",
		"brainsim_runtime_gc_cycles_total",
		"brainsim_runtime_gc_pause_seconds",
		"brainsim_runtime_goroutines",
		"brainsim_runtime_heap_alloc_bytes",
		"brainsim_scan_seconds",
		"brainsim_scans_total",
		"brainsim_shed_total",
		"brainsim_solver_entry_residual",
		"brainsim_solver_iterations",
		"brainsim_solver_restarts_total",
		"brainsim_solver_solves_total",
		"brainsim_solver_stagnated_cycles_total",
		"brainsim_stage_seconds",
		"brainsim_submissions_total",
		"brainsim_warmstart_iterations_saved_total",
		"brainsim_workers_alive",
	}
	if got := metricFamilies(t, svc); !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics families:\n got %v\nwant %v", got, want)
	}

	reg := svc.Registry()
	stage := func(s string) uint64 {
		return reg.Histogram(obs.MetricStageSeconds, obs.Label{Key: "stage", Value: s}).Summary().Count
	}
	if o := outcomes(svc); o["completed"] != 2 || updates(svc) != 1 || count(svc, obs.MetricShed) != 1 ||
		stage(core.StageSolve) != 2 || stage(core.StageMesh) != 1 {
		t.Errorf("registry: outcomes %v, %d updates, want 2 scans (1 update) and 1 shed", o, updates(svc))
	}
	// The iteration total is the histogram's sum; no second counter states it.
	if h := reg.Histogram(obs.MetricSolverIterations).Summary(); h.Count != 2 || h.Sum <= 0 {
		t.Errorf("solver iteration histogram = %+v, want two solves", h)
	}

	rec := httptest.NewRecorder()
	AdminHandler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		ShedRate float64 `json:"shed_rate"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 3; math.Abs(health.ShedRate-want) > 1e-12 {
		t.Errorf("/healthz shed_rate = %v, want 1 shed of 3 submissions", health.ShedRate)
	}
}

// scanCtx is a caller context the collector can report on.
type scanCtx struct{ context.Context }

// TestFinishedJobPinsNothing: a finished job stays addressable for the
// retention window but holds only its own Result — not the session
// (baseline system, ILU factors, mesh), not the scan volume, not the
// caller's context. After CloseSession all three are collectable while
// /jobs/{id} still answers.
func TestFinishedJobPinsNothing(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 23)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	freed := make(chan string, 3)
	var j *Job
	func() {
		ms, err := svc.managed("or")
		if err != nil {
			t.Fatal(err)
		}
		sess := ms.sess
		scan, ctx := c.Intraop.Clone(), &scanCtx{context.Background()}
		runtime.SetFinalizer(sess, func(*core.Session) { freed <- "session" })
		runtime.SetFinalizer(scan, func(any) { freed <- "scan" })
		runtime.SetFinalizer(ctx, func(*scanCtx) { freed <- "context" })
		if j, err = svc.Submit(ctx, "or", scan); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if err := svc.CloseSession("or"); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for deadline := time.Now().Add(5 * time.Second); len(got) < 3; {
		runtime.GC()
		select {
		case what := <-freed:
			got[what] = true
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("a retained job still pins its inputs: only %v were freed", got)
		}
	}
	if kept, err := svc.Job(j.ID); err != nil || kept != j || j.Status().State != "done" || len(j.Events()) != len(core.Stages) {
		t.Errorf("job %s not retained intact: %v", j.ID, err)
	}
	if res, err := j.Wait(context.Background()); err != nil || res == nil {
		t.Errorf("retained job lost its own result: %v", err)
	}
}
