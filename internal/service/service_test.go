package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// testCase generates a small neurosurgery case.
func testCase(n int, seed int64) *phantom.Case {
	p := phantom.DefaultParams(n)
	p.NoiseStd = 2
	p.ShiftMagnitude = 6
	p.Seed = seed
	return phantom.Generate(p)
}

// count reads one counter of the service's registry.
func count(svc *Service, m obs.Metric, labels ...obs.Label) int {
	return int(svc.Registry().Counter(m, labels...).Value())
}

// outcomes reads brainsim_scans_total by outcome.
func outcomes(svc *Service) map[string]int {
	out := map[string]int{}
	for _, o := range scanOutcomes {
		out[o] = count(svc, obs.MetricScans, obs.Label{Key: "outcome", Value: o})
	}
	return out
}

// fastConfig shrinks optimizer budgets for test-sized volumes.
func fastConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SkipRigid = true // phantom pairs share a frame
	cfg.Surface.MaxIter = 300
	cfg.Surface.Tol = 0.001
	cfg.Solver.Tol = 1e-6
	cfg.Ranks = 2
	return cfg
}

func TestServiceConcurrentSessions(t *testing.T) {
	// Two operating rooms, one worker each: both scans go through the
	// pool and each job records the full per-stage event timeline.
	svc := New(Options{Workers: 2})
	defer svc.Close()

	cases := []*phantom.Case{testCase(24, 1), testCase(24, 2)}
	ids := []string{"or-1", "or-2"}
	for i, id := range ids {
		if err := svc.Open(SessionSpec{ID: id, Config: fastConfig(), Preop: cases[i].Preop, PreopLabels: cases[i].PreopLabels}); err != nil {
			t.Fatal(err)
		}
	}

	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		j, err := svc.Submit(context.Background(), id, cases[i].Intraop)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("session %s: %v", ids[i], err)
		}
		if res.Degraded {
			t.Errorf("session %s: unexpected degraded result", ids[i])
		}
		// Per-stage timeline events: every stage started, finished, no
		// errors, and the solve stage carries an assembly counters
		// snapshot.
		events := j.Events()
		if len(events) != len(core.Stages) {
			t.Fatalf("session %s: %d stage events, want %d: %+v",
				ids[i], len(events), len(core.Stages), events)
		}
		countersSeen := false
		for k, e := range events {
			if e.Stage != core.Stages[k] {
				t.Errorf("session %s event %d: stage %q, want %q", ids[i], k, e.Stage, core.Stages[k])
			}
			if !e.Done || e.Err != nil {
				t.Errorf("session %s event %d (%s): done=%v err=%v", ids[i], k, e.Stage, e.Done, e.Err)
			}
			if e.Flops > 0 {
				countersSeen = true
			}
		}
		if !countersSeen {
			t.Errorf("session %s: no counters snapshot recorded", ids[i])
		}
	}

	if o := outcomes(svc); o["completed"] != 2 || o["degraded"]+o["canceled"]+o["failed"] != 0 {
		t.Errorf("scan outcomes = %v, want 2 clean scans", o)
	}
	for _, stage := range core.Stages {
		label := obs.Label{Key: "stage", Value: stage}
		h := svc.Registry().Histogram(obs.MetricStageSeconds, label).Summary()
		if h.Count != 2 || h.Sum <= 0 || count(svc, obs.MetricStageErrors, label) != 0 {
			t.Errorf("stage %q: %+v and %d errors, want two timed executions, no error",
				stage, h, count(svc, obs.MetricStageErrors, label))
		}
	}
	if svc.Registry().Counter(obs.MetricAssemblyFlops).Value() <= 0 {
		t.Error("no assembly flops aggregated")
	}
}

func TestServiceSerializesScansOfOneSession(t *testing.T) {
	// Two scans of the same surgery: the second must see the refreshed
	// statistical model of the first, which requires serialization.
	svc := New(Options{Workers: 2})
	defer svc.Close()
	c := testCase(24, 3)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	j1, err := svc.Submit(context.Background(), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(context.Background(), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Session("or")
	if err != nil {
		t.Fatal(err)
	}
	if sess.ScanCount() != 2 {
		t.Errorf("ScanCount = %d, want 2", sess.ScanCount())
	}
	if sess.PrototypeCount() == 0 {
		t.Error("statistical model not built")
	}
}

func TestServiceCancelledSubmission(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 4)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j, err := svc.Submit(ctx, "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if o := outcomes(svc); o["canceled"] != 1 || o["failed"] != 0 {
		t.Errorf("scan outcomes = %v, want one canceled", o)
	}
}

func TestServiceScanTimeout(t *testing.T) {
	// A 1ns service-imposed budget has always expired by the first
	// stage check: the scan fails before the degradation point and is
	// counted as canceled.
	svc := New(Options{Workers: 1, ScanTimeout: time.Nanosecond})
	defer svc.Close()
	c := testCase(24, 5)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(context.Background(), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := j.Wait(context.Background())
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", werr)
	}
	if o := outcomes(svc); o["canceled"] != 1 {
		t.Errorf("scan outcomes = %v, want one canceled", o)
	}
}

func TestServiceSessionLifecycleErrors(t *testing.T) {
	svc := New(Options{Workers: 1})
	c := testCase(24, 6)

	badCfg := fastConfig()
	badCfg.KNN = 0
	if err := svc.Open(SessionSpec{ID: "bad", Config: badCfg, Preop: c.Preop, PreopLabels: c.PreopLabels}); err == nil {
		t.Error("invalid config accepted by Open")
	}

	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); !errors.Is(err, ErrDuplicateSession) {
		t.Errorf("duplicate open err = %v, want ErrDuplicateSession", err)
	}
	if _, err := svc.Submit(context.Background(), "ghost", c.Intraop); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session err = %v, want ErrUnknownSession", err)
	}
	if err := svc.CloseSession("or"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), "or", c.Intraop); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("closed session err = %v, want ErrUnknownSession", err)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := svc.Open(SessionSpec{ID: "late", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); !errors.Is(err, ErrClosed) {
		t.Errorf("open after close err = %v, want ErrClosed", err)
	}
}

// TestServiceRejectsMalformedVolumes: a scan whose data is not its
// grid's voxel count fails its own job (or Open) with an error and the
// process — and every other open surgery — carries on.
func TestServiceRejectsMalformedVolumes(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c := testCase(24, 6)
	shortLabels := &volume.Labels{Grid: c.PreopLabels.Grid, Data: c.PreopLabels.Data[:len(c.PreopLabels.Data)-1]}
	if err := svc.Open(SessionSpec{ID: "bad", Config: fastConfig(), Preop: c.Preop, PreopLabels: shortLabels}); err == nil {
		t.Error("Open accepted short labels")
	}
	// Nor a second statement of the solve partition (a mis-sized one used
	// to deliver the rigid answer as a converged biomechanical one).
	parted := fastConfig()
	parted.Solver.Partition = par.Partition{N: 7, P: 3, Starts: []int{0, 2, 4, 7}}
	if err := svc.Open(SessionSpec{ID: "bad", Config: parted, Preop: c.Preop, PreopLabels: c.PreopLabels}); err == nil ||
		!strings.Contains(err.Error(), "Solver.Partition") {
		t.Errorf("Open with a Solver.Partition: err = %v, want it rejected by name", err)
	}
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	short := &volume.Scalar{Grid: c.Intraop.Grid, Data: c.Intraop.Data[:len(c.Intraop.Data)-1]}
	ctx := context.Background()
	if _, err := wait(ctx, svc.Submit, "or", short); err == nil {
		t.Error("register job delivered a result for a short scan")
	}
	if _, err := wait(ctx, svc.SubmitUpdate, "or", short); err == nil {
		t.Error("update job delivered a result for a short scan")
	}
	if _, err := wait(ctx, svc.Submit, "or", c.Intraop); err != nil {
		t.Errorf("good scan after the rejected ones: %v", err)
	}
	if o := outcomes(svc); o["failed"] != 2 || o["completed"] != 1 {
		t.Errorf("scan outcomes = %v, want 2 failed and 1 completed", o)
	}
}

// wait submits one scan through submit (the service's Submit or
// SubmitUpdate) and waits for its result.
func wait(ctx context.Context, submit func(context.Context, string, *volume.Scalar) (*Job, error),
	sessionID string, intraop *volume.Scalar) (*core.Result, error) {
	j, err := submit(ctx, sessionID, intraop)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// openOR starts a service and opens session "or" on a fresh case.
func openOR(t *testing.T, opts Options, cfg core.Config, seed int64) (*Service, *phantom.Case) {
	t.Helper()
	svc := New(opts)
	t.Cleanup(func() { svc.Close() })
	c := testCase(24, seed)
	if err := svc.Open(SessionSpec{ID: "or", Config: cfg, Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	return svc, c
}

// shedOne overloads a one-worker, one-slot service: it stalls the worker
// on session "or"'s gate with a registration of first, queues second
// behind it (a job of that kind) and submits once more, which must be
// shed instead of blocking the scanner. release lets the two accepted
// jobs run and waits for them.
func shedOne(t *testing.T, svc *Service, first, second *volume.Scalar, kind JobKind) (j1, j2 *Job, release func()) {
	t.Helper()
	svc.mu.Lock()
	ms := svc.sessions["or"]
	svc.mu.Unlock()
	ms.gate <- struct{}{} // stall the worker inside runJob
	j1, err := svc.Submit(context.Background(), "or", first)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has dequeued j1 and is blocked on the gate,
	// so the queue slot is free again.
	for deadline := time.Now().Add(5 * time.Second); len(svc.queue) != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if j2, err = svc.submit(context.Background(), "or", second, kind); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), "or", first); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	return j1, j2, func() {
		t.Helper()
		<-ms.gate
		for _, j := range []*Job{j1, j2} {
			if _, err := j.Wait(context.Background()); err != nil {
				t.Errorf("job %s failed: %v", j.ID, err)
			}
		}
	}
}

func TestServiceQueueFull(t *testing.T) {
	svc, c := openOR(t, Options{Workers: 1, QueueDepth: 1}, fastConfig(), 7)
	j1, _, release := shedOne(t, svc, c.Intraop, c.Intraop, JobRegister)
	release()
	if w := j1.QueueWait(); w < 0 {
		t.Errorf("negative queue wait %v", w)
	}
}
