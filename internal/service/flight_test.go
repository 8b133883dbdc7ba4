package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/volume"
)

// anomalyLogs returns the dump's log records above INFO: what the
// service said went wrong. Every anomaly says it exactly once.
func anomalyLogs(d *FlightDump) (out []obs.SpanRecord) {
	for _, r := range d.Records {
		if r.Kind == "log" && r.Level != "INFO" {
			out = append(out, r)
		}
	}
	return out
}

// dumpSpan returns the dump's one span of that name.
func dumpSpan(t *testing.T, d *FlightDump, name string) obs.SpanRecord {
	t.Helper()
	var found []obs.SpanRecord
	for _, r := range d.Records {
		if r.Kind == "" && r.Name == name {
			found = append(found, r)
		}
	}
	if len(found) != 1 {
		t.Fatalf("dump holds %d %s spans, want 1", len(found), name)
	}
	return found[0]
}

// lastDump returns session "or"'s dump, which must carry that trigger.
func lastDump(t *testing.T, svc *Service, trigger string) *FlightDump {
	t.Helper()
	d, err := svc.SessionLastDump("or")
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Trigger != trigger || d.SessionID != "or" {
		t.Fatalf("dump = %+v, want trigger %s of session or", d, trigger)
	}
	return d
}

// TestServiceFlightDumpOnDegraded induces a mid-solve degradation and
// checks the session's flight recorder is frozen into a retrievable
// dump whose records carry the anomalous job's identity — the black box
// a surgeon's post-incident review reads.
func TestServiceFlightDumpOnDegraded(t *testing.T) {
	dumpDir := t.TempDir()
	svc, c := openOR(t, Options{Workers: 1, FlightDumpDir: dumpDir}, fastConfig(), 8)
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

	d := lastDump(t, svc, "degraded")
	if d.JobID != j.ID {
		t.Fatalf("dump names job %q, want %s", d.JobID, j.ID)
	}
	// Every record names the anomalous job and its session: the dump
	// has to be joinable to the job.
	for _, r := range d.Records {
		if r.Job != j.ID || r.Session != "or" {
			t.Errorf("record %q carries session %q job %q, want or/%s", r.Name, r.Session, r.Job, j.ID)
		}
	}
	// The run span states the decision and the interrupted stage; the
	// service says once that the scan degraded.
	if run := dumpSpan(t, d, obs.SpanPipelineRun.String()); run.Attrs["degraded"] != true || run.Attrs["degraded_stage"] != core.StageSolve {
		t.Errorf("pipeline.run attrs = %v, want degraded at %s", run.Attrs, core.StageSolve)
	}
	if logs := anomalyLogs(d); len(logs) != 1 || logs[0].Level != "WARN" || !strings.Contains(logs[0].Name, "degraded") {
		t.Errorf("anomaly logs = %+v, want the one degradation warning", logs)
	}

	// The same dump also landed on disk as JSONL.
	f, err := os.Open(filepath.Join(dumpDir, "or-"+j.ID+".jsonl"))
	if err != nil {
		t.Fatalf("dump file: %v", err)
	}
	defer f.Close()
	recs, err := obs.ReadSpans(f)
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
	// A caller's plain logger: the service puts the ContextHandler under it.
	plain := slog.New(slog.NewTextHandler(io.Discard, nil))
	svc, c := openOR(t, Options{Workers: 1, Logger: plain}, fastConfig(), 12)
	// An update before any baseline falls back to a full registration.
	if _, err := wait(context.Background(), svc.SubmitUpdate, "or", c.Intraop); err != nil {
		t.Fatal(err)
	}
	logs := anomalyLogs(lastDump(t, svc, "fallback"))
	if len(logs) != 1 || logs[0].Level != "WARN" || logs[0].Attrs["reason"] != "no baseline" || logs[0].Job == "" {
		t.Errorf("anomaly logs = %+v, want the one fallback warning naming its reason and job", logs)
	}
}

// nonConverging is a configuration whose solve stops short of tolerance.
func nonConverging() core.Config {
	cfg := fastConfig()
	cfg.Solver.MaxIter, cfg.Solver.Tol = 1, 1e-14
	return cfg
}

func TestServiceFlightDumpOnNonConverged(t *testing.T) {
	svc, c := openOR(t, Options{Workers: 1}, nonConverging(), 9)
	res, err := wait(context.Background(), svc.Submit, "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if res.SolveStats.Converged {
		t.Fatal("solve converged in one iteration; cannot exercise the trigger")
	}
	d := lastDump(t, svc, "nonconverged")
	// The solver's own statistics are in the black box, on the one span
	// that states them; the service only says that it did not converge.
	if solve := dumpSpan(t, d, obs.SpanFEMSolve.String()); solve.Attrs["converged"] != false || solve.Attrs["iterations"] != 1 ||
		solve.Attrs["final_rel_residual"] != res.SolveStats.FinalResRel {
		t.Errorf("fem.solve attrs = %v, want the non-converged solve %v", solve.Attrs, res.SolveStats)
	}
	if logs := anomalyLogs(d); len(logs) != 1 || logs[0].Name != "solve did not converge" || len(logs[0].Attrs) != 0 {
		t.Errorf("anomaly logs = %+v, want the one bare non-convergence warning", logs)
	}
}

// TestServiceFlightDumpOnFailed: a job that ends in an error leaves one
// ERROR record carrying it.
func TestServiceFlightDumpOnFailed(t *testing.T) {
	svc, c := openOR(t, Options{Workers: 1}, fastConfig(), 9)
	short := &volume.Scalar{Grid: c.Intraop.Grid, Data: c.Intraop.Data[:len(c.Intraop.Data)-1]}
	_, err := wait(context.Background(), svc.Submit, "or", short)
	if err == nil {
		t.Fatal("short scan registered")
	}
	logs := anomalyLogs(lastDump(t, svc, "failed"))
	if len(logs) != 1 || logs[0].Level != "ERROR" || logs[0].Attrs["error"] != err.Error() {
		t.Errorf("anomaly logs = %+v, want the one failure record carrying %q", logs, err)
	}
}

func TestServiceFlightDumpOnShed(t *testing.T) {
	svc, c := openOR(t, Options{Workers: 1, QueueDepth: 1}, fastConfig(), 7)
	_, _, release := shedOne(t, svc, c.Intraop, c.Intraop, JobRegister)
	// The shed fired its dump at submit time, before the queue drains,
	// and the one record of it is in the ring, under the session.
	d := lastDump(t, svc, "shed")
	if logs := anomalyLogs(d); d.JobID != "" || len(logs) != 1 || logs[0].Name != "scan shed" ||
		logs[0].Attrs["reason"] != "queue full" || logs[0].Session != "or" {
		t.Errorf("dump of job %q, anomaly logs %+v: want no job and the one shed record", d.JobID, logs)
	}
	release()
}

// TestTraceEqualsFlightDump: a Tracer on the submitting context and the
// session's flight recorder are sinks on one seam writing one record
// type, so every span line of a scan's dump is byte-for-byte a line of
// its trace, and the dump holds nothing but those spans and logs.
func TestTraceEqualsFlightDump(t *testing.T) {
	deadline := newStageDeadline()
	for _, tc := range []struct {
		trigger string
		cfg     core.Config
		ctx     context.Context
	}{
		{"degraded", fastConfig(), obs.WithSink(deadline, expireAt{core.StageSolve, deadline.expire})},
		{"nonconverged", nonConverging(), context.Background()},
	} {
		svc, c := openOR(t, Options{Workers: 1, FlightRecorderSize: 4096}, tc.cfg, 9)
		var trace bytes.Buffer
		j, err := svc.Submit(obs.WithTracer(tc.ctx, obs.NewTracer(&trace)), "or", c.Intraop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		var spans []obs.SpanRecord
		for _, r := range lastDump(t, svc, tc.trigger).Records {
			switch r.Kind {
			case "":
				spans = append(spans, r)
			case "log":
			default:
				t.Errorf("%s: dump holds a %q record %q", tc.trigger, r.Kind, r.Name)
			}
		}
		var dump bytes.Buffer
		if err := obs.WriteSpans(&dump, spans); err != nil {
			t.Fatal(err)
		}
		// Concurrent spans may end in a different order at each sink.
		traced, dumped := sortedLines(trace.String()), sortedLines(dump.String())
		if trace.Len() == 0 || !reflect.DeepEqual(traced, dumped) {
			t.Errorf("%s: the trace's %d span lines and the dump's %d differ:\n%s\n%s",
				tc.trigger, len(traced), len(dumped), strings.Join(traced, "\n"), strings.Join(dumped, "\n"))
		}
	}
}

// sortedLines splits JSONL into its lines, sorted.
func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	sort.Strings(lines)
	return lines
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
	if _, err := wait(context.Background(), svc.Submit, "or-a", c.Intraop); err != nil {
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
	recs, err := obs.ReadSpans(bytes.NewReader(body))
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
	if _, err := wait(context.Background(), svc.SubmitUpdate, "or-a", c.Intraop); err != nil {
		t.Fatal(err)
	}
	// or-a has a baseline now, so force the anomaly on a fresh session.
	if err := svc.Open(SessionSpec{ID: "or-b", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	if _, err := wait(context.Background(), svc.SubmitUpdate, "or-b", c.Intraop); err != nil {
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

// TestJobRetentionEviction bounds the admin job index: with one worker
// and one queue slot it retains two jobs, so a third scan evicts the
// oldest finished job and counts the eviction.
func TestJobRetentionEviction(t *testing.T) {
	svc := New(Options{Workers: 1, QueueDepth: 1})
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

// TestDefaultJobRetentionIsCapacity: the index holds as many jobs as the
// service can have accepted at once — workers plus queue slots — so the
// results it pins do not grow with the scans it has run. Jobs submitted
// already cancelled finish without running a scan, which keeps this
// cheap.
func TestDefaultJobRetentionIsCapacity(t *testing.T) {
	svc := New(Options{Workers: 2, QueueDepth: 3})
	defer svc.Close()
	c := testCase(24, 6)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last *Job
	for i := 0; i < 8; i++ {
		j, err := svc.Submit(ctx, "or", c.Intraop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("job %s: err = %v, want context.Canceled", j.ID, err)
		}
		last = j
	}
	if jobs := svc.Jobs(); len(jobs) != 5 || jobs[4] != last {
		t.Errorf("retained %d jobs, want the last Workers+QueueDepth = 5", len(jobs))
	}
	if v := svc.Registry().Counter(obs.MetricJobsEvicted).Value(); v != 3 {
		t.Errorf("%s = %v, want 3", obs.MetricJobsEvicted, v)
	}
}
