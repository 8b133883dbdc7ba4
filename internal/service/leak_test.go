package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestServiceLeaksNothing drives every way a job can end — delivered,
// cancelled while queued, shed on a full queue, degraded by its
// deadline — and then closes the service: every goroutine it started
// (pool workers, the pipeline's rank and k-NN workers) must be gone and
// no session gate may stay held. A worker that blocks on a send nobody
// receives, a missed WaitGroup.Done or a gate not released on an error
// path shows up here as a leftover goroutine, a held gate, or Close
// never returning (the suite's -timeout then prints the goroutine dump).
func TestServiceLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Options{Workers: 1, QueueDepth: 1})
	c := testCase(24, 31)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	if _, err := wait(bg, svc.Submit, "or", c.Intraop); err != nil {
		t.Fatal(err)
	}
	if _, err := wait(bg, svc.SubmitUpdate, "or", c.Intraop); err != nil {
		t.Fatal(err)
	}

	// Stall the worker on the session gate with one job, park a second
	// in the queue, shed a third, then cancel the parked one.
	ms, err := svc.managed("or")
	if err != nil {
		t.Fatal(err)
	}
	ms.gate <- struct{}{}
	running, err := svc.SubmitUpdate(bg, "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); svc.QueueDepth() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the first job")
		}
	}
	ctx, cancel := context.WithCancel(bg)
	queued, err := svc.SubmitUpdate(ctx, "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitUpdate(bg, "or", c.Intraop); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}
	cancel()
	<-ms.gate
	if _, err := running.Wait(bg); err != nil {
		t.Errorf("stalled job: %v", err)
	}
	if _, err := queued.Wait(bg); !errors.Is(err, context.Canceled) {
		t.Errorf("job cancelled while queued: err = %v, want context.Canceled", err)
	}

	// A deadline that expires as the solve starts degrades the job.
	dl := newStageDeadline()
	late, err := svc.SubmitUpdate(obs.WithSink(dl, expireAt{core.StageSolve, dl.expire}), "or", c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := late.Wait(bg); err != nil || !res.Degraded {
		t.Fatalf("deadline at the solve stage: degraded = %v, err = %v", res != nil && res.Degraded, err)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"completed": 3, "degraded": 1, "canceled": 1, "failed": 0}
	if o, shed := outcomes(svc), count(svc, obs.MetricShed); !reflect.DeepEqual(o, want) || shed != 1 {
		t.Errorf("scan outcomes %v and %d shed, want %v and 1", o, shed, want)
	}
	if n := len(ms.gate); n != 0 {
		t.Errorf("session gate still held after Close (%d)", n)
	}
	noGoroutinesLeft(t, before)
}

// noGoroutinesLeft waits for the goroutine count to fall back to
// before: Close returns once wg.Wait does, and the last workers may
// still be a few instructions from exiting.
func noGoroutinesLeft(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// panicAt is a span sink that panics when the named pipeline stage
// starts, on the pipeline's own goroutine.
type panicAt string

func (p panicAt) SpanStarted(i obs.SpanInfo) {
	if i.Stage && i.Name == string(p) {
		panic("sink failed at " + i.Name)
	}
}
func (panicAt) SpanEnded(obs.FinishedSpan) {}

// TestPanickingJobCostsOneJob: a panic on a job's goroutine — here a
// sink on the submitting context, as the solve stage starts — fails that
// job with ErrJobPanicked and a flight dump, and nothing else: the
// worker keeps serving, the session's next update and another session's
// concurrent scan complete, and Close leaves no goroutine behind.
func TestPanickingJobCostsOneJob(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Options{Workers: 2})
	c1, c2 := streamCase(24, 32)
	for _, id := range []string{"or", "or-2"} {
		if err := svc.Open(SessionSpec{ID: id, Config: fastConfig(), Preop: c1.Preop, PreopLabels: c1.PreopLabels}); err != nil {
			t.Fatal(err)
		}
	}
	bg := context.Background()
	if _, err := wait(bg, svc.Submit, "or", c1.Intraop); err != nil {
		t.Fatal(err)
	}

	other, err := svc.Submit(bg, "or-2", c1.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	_, err = wait(obs.WithSink(bg, panicAt(core.StageSolve)), svc.SubmitUpdate, "or", c2.Intraop)
	if !errors.Is(err, ErrJobPanicked) || !strings.Contains(err.Error(), "sink failed at "+core.StageSolve) ||
		!strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("panicking job: err = %v, want ErrJobPanicked with the panic value and stack", err)
	}
	d := lastDump(t, svc, "failed")
	if logs := anomalyLogs(d); len(logs) != 1 || logs[0].Name != "scan failed" || logs[0].Attrs["error"] != err.Error() {
		t.Errorf("anomaly logs = %+v, want the one failure record", logs)
	}
	if n := count(svc, obs.MetricScans, obs.Label{Key: "outcome", Value: "failed"}); n != 1 {
		t.Errorf("failed scans = %d, want 1", n)
	}

	if _, err := other.Wait(bg); err != nil {
		t.Errorf("concurrent session: %v", err)
	}
	if res, err := wait(bg, svc.SubmitUpdate, "or", c2.Intraop); err != nil || !res.Incremental {
		t.Errorf("next update of the panicked session: err = %v", err)
	}
	if n := svc.WorkersAlive(); n != 2 {
		t.Errorf("%d workers alive after the panic, want 2", n)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	noGoroutinesLeft(t, before)
}
