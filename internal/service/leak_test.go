package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestServiceLeaksNothing drives every way a job can end — delivered,
// cancelled while queued, shed on a full queue, degraded by its
// deadline — and then closes the service: every goroutine it started
// (pool workers, the runtime sampler, the pipeline's rank and k-NN
// workers) must be gone and no session gate may stay held. A worker
// that blocks on a send nobody receives, a missed WaitGroup.Done or a
// gate not released on an error path shows up here as a leftover
// goroutine, a held gate, or Close never returning (the suite's
// -timeout then prints the goroutine dump).
func TestServiceLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Options{Workers: 1, QueueDepth: 1, RuntimeSampleInterval: time.Millisecond})
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
	if m := svc.Metrics(); m.Scans != 5 || m.Shed != 1 || m.Canceled != 1 || m.Degraded != 1 {
		t.Errorf("metrics = %+v, want 5 scans, 1 shed, 1 canceled, 1 degraded", m)
	}
	if n := len(ms.gate); n != 0 {
		t.Errorf("session gate still held after Close (%d)", n)
	}
	// Close returns once wg.Wait does; the last workers may still be a
	// few instructions from exiting.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
