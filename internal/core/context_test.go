package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// stageHook is a sink on the obs span seam that calls fn when the named
// pipeline stage starts — or, with atEnd, when it ends — which is how
// these tests pin a cancellation or a deadline to an exact stage
// boundary.
type stageHook struct {
	stage string
	atEnd bool
	fn    func()
}

func (h stageHook) SpanStarted(i obs.SpanInfo) {
	if !h.atEnd && i.Stage && i.Name == h.stage {
		h.fn()
	}
}

func (h stageHook) SpanEnded(f obs.FinishedSpan) {
	if h.atEnd && f.Stage && f.Name == h.stage {
		h.fn()
	}
}

// atStage returns ctx carrying a stageHook that fires when stage starts.
func atStage(ctx context.Context, stage string, fn func()) context.Context {
	return obs.WithSink(ctx, stageHook{stage: stage, fn: fn})
}

// afterStage returns ctx carrying a stageHook that fires when stage ends.
func afterStage(ctx context.Context, stage string, fn func()) context.Context {
	return obs.WithSink(ctx, stageHook{stage: stage, atEnd: true, fn: fn})
}

// expirableCtx is a context whose deadline can be made to "expire" at a
// precise pipeline event, so the degradation policy can be tested
// deterministically instead of racing a wall-clock timer.
type expirableCtx struct {
	mu      sync.Mutex
	done    chan struct{}
	expired bool
}

func newExpirableCtx() *expirableCtx {
	return &expirableCtx{done: make(chan struct{})}
}

func (c *expirableCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *expirableCtx) Done() <-chan struct{}       { return c.done }
func (c *expirableCtx) Value(any) any               { return nil }

func (c *expirableCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expired {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *expirableCtx) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.expired {
		c.expired = true
		close(c.done)
	}
}

func TestRunContextCancelDuringSolve(t *testing.T) {
	c := testCase(24)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel exactly when the FEM solve begins: the GMRES loop must
	// notice within one restart cycle and attribute the abort to the
	// solve stage.
	_, err := registerCase(atStage(ctx, StageSolve, cancel), fastConfig(), c)
	if err == nil {
		t.Fatal("cancelled solve returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *StageError", err)
	}
	if se.Stage != StageSolve {
		t.Errorf("StageError.Stage = %q, want %q", se.Stage, StageSolve)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	c := testCase(24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := registerCase(ctx, fastConfig(), c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageRigid {
		t.Errorf("pre-cancelled run should fail at the first stage, got %v", err)
	}
}

func TestRunContextDeadlineAfterSurfaceDegradesToRigid(t *testing.T) {
	c := testCase(24)
	ctx := newExpirableCtx()
	// The deadline expires the moment the solve starts — i.e. after the
	// surface stage completed. The clinical fallback applies: no error,
	// rigid-only result marked degraded.
	res, err := registerCase(atStage(ctx, StageSolve, ctx.expire), fastConfig(), c)
	if err != nil {
		t.Fatalf("deadline after surface must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if res.DegradedReason == "" {
		t.Error("empty DegradedReason")
	}
	if res.Warped != res.AlignedPreop {
		t.Error("degraded Warped is not the rigid-only aligned preop")
	}
	if res.Backward != nil || res.NodeDisplacements != nil {
		t.Error("degraded result carries deformation fields")
	}
	if res.MatchMeanAbsDiff != res.RigidMeanAbsDiff {
		t.Errorf("degraded match metric %v != rigid metric %v",
			res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
	}
	tl := res.Timeline()
	if !strings.Contains(tl, "DEGRADED") {
		t.Errorf("timeline does not flag degradation:\n%s", tl)
	}
}

// checkDegradedWithSolutionInHand: the deadline expired between the
// solve and resample stages, so the run holds a converged solution it
// will not deliver. The fallback is the rigid-only result and nothing of
// the discarded solve: no displacements, so no stresses can be derived
// from it either.
func checkDegradedWithSolutionInHand(t *testing.T, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("deadline after the solve must degrade, not fail: %v", err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, StageResample) {
		t.Fatalf("Degraded=%v, reason %q; want a deadline in %s", res.Degraded, res.DegradedReason, StageResample)
	}
	if !res.SolveStats.Converged || res.SolveStats.Iterations == 0 {
		t.Fatalf("the solve did not run to completion before the deadline: %+v", res.SolveStats)
	}
	if res.NodeDisplacements != nil || res.Backward != nil {
		t.Error("degraded result carries the discarded deformation")
	}
	if res.Warped != res.AlignedPreop {
		t.Error("degraded Warped is not the rigid-only aligned preop")
	}
}

func TestRunContextDeadlineAfterSolveDeliversNoStresses(t *testing.T) {
	c := testCase(24)
	ctx := newExpirableCtx()
	res, err := registerCase(afterStage(ctx, StageSolve, ctx.expire), fastConfig(), c)
	checkDegradedWithSolutionInHand(t, res, err)
}

func TestRunContextDeadlineBeforeSurfaceFails(t *testing.T) {
	c := testCase(24)
	ctx := newExpirableCtx()
	// Expiring during classification is before the fallback point: the
	// scan must fail with a stage-attributed deadline error.
	_, err := registerCase(atStage(ctx, StageClassify, ctx.expire), fastConfig(), c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageClassify {
		t.Errorf("err = %v, want StageError at %q", err, StageClassify)
	}
}

// panicInBuild is a sink that panics as the named preoperative build
// ends its preop.build span, on that build's goroutine.
type panicInBuild string

func (panicInBuild) SpanStarted(obs.SpanInfo) {}

func (p panicInBuild) SpanEnded(f obs.FinishedSpan) {
	if f.Name == obs.SpanPreopBuild.String() && f.Attrs["artifact"] == string(p) {
		panic("build failed: " + string(p))
	}
}

// buildLedger is a sink that counts the preop.build spans open, and
// notes one that starts after the scan has returned.
type buildLedger struct {
	mu             sync.Mutex
	open           int
	returned, late bool
}

func (l *buildLedger) SpanStarted(i obs.SpanInfo) {
	if i.Name == obs.SpanPreopBuild.String() {
		l.mu.Lock()
		l.open++
		l.late = l.late || l.returned
		l.mu.Unlock()
	}
}

func (l *buildLedger) SpanEnded(f obs.FinishedSpan) {
	if f.Name == obs.SpanPreopBuild.String() {
		l.mu.Lock()
		l.open--
		l.mu.Unlock()
	}
}

// scanReturned records the return and the builds still open then.
func (l *buildLedger) scanReturned() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.returned = true
	return l.open
}

// TestBuildLeaksNothingAndFailsWhereRead: the preoperative model a full
// registration builds beside its scan leaves no goroutine behind on any
// return path — success, a stage error, a degraded result, a panic —
// and its failures surface on the scan's goroutine: a cancellation as
// the StageError of the stage running, a deadline at the solve as a
// degraded result, and a build's panic where the stage reads its value
// or, when none does, once the builds are joined.
func TestBuildLeaksNothingAndFailsWhereRead(t *testing.T) {
	c := testCase(24)
	canceledAt := func(ctx context.Context, stage string) context.Context {
		ctx, cancel := context.WithCancel(ctx)
		t.Cleanup(cancel)
		return atStage(ctx, stage, cancel)
	}
	wantPanic := func(build string) func(*testing.T, *Result, error, any) {
		return func(t *testing.T, _ *Result, err error, p any) {
			bp, ok := p.(*buildPanic)
			if !ok || bp.value != "build failed: "+build || !strings.Contains(bp.Error(), "goroutine ") {
				t.Errorf("recovered %v (err %v), want the %s build's panic with its stack", p, err, build)
			}
		}
	}
	// Each case's context carries the ledger l, ahead of any sink that
	// panics.
	cases := []struct {
		name  string
		ctx   func(l *buildLedger) context.Context
		check func(t *testing.T, res *Result, err error, panicked any)
	}{
		{"completed", func(l *buildLedger) context.Context {
			return obs.WithSink(context.Background(), l)
		}, func(t *testing.T, res *Result, err error, p any) {
			if err != nil || p != nil || res.Degraded {
				t.Errorf("err = %v, panic = %v", err, p)
			}
		}},
		{"canceled-at-classify", func(l *buildLedger) context.Context {
			return canceledAt(obs.WithSink(context.Background(), l), StageClassify)
		}, func(t *testing.T, _ *Result, err error, p any) {
			var se *StageError
			if p != nil || !errors.As(err, &se) || se.Stage != StageClassify || !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, panic = %v; want a cancellation at %s", err, p, StageClassify)
			}
		}},
		{"deadline-at-solve", func(l *buildLedger) context.Context {
			ctx := newExpirableCtx()
			return obs.WithSink(atStage(ctx, StageSolve, ctx.expire), l)
		}, func(t *testing.T, res *Result, err error, p any) {
			if err != nil || p != nil || !res.Degraded {
				t.Errorf("err = %v, panic = %v; want a degraded result", err, p)
			}
		}},
		{"panic-read-by-classify", func(l *buildLedger) context.Context {
			return obs.WithSink(obs.WithSink(context.Background(), l), panicInBuild("preop-edt"))
		}, wantPanic("preop-edt")},
		{"panic-read-by-none", func(l *buildLedger) context.Context {
			return obs.WithSink(canceledAt(obs.WithSink(context.Background(), l), StageSurface), panicInBuild("preop-interp"))
		}, wantPanic("preop-interp")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ledger := &buildLedger{}
			ctx := tc.ctx(ledger)
			before := runtime.NumGoroutine()
			var (
				res      *Result
				err      error
				panicked any
			)
			func() {
				defer func() { panicked = recover() }()
				res, err = registerCase(ctx, fastConfig(), c)
			}()
			if open := ledger.scanReturned(); open != 0 {
				t.Errorf("%d builds still running when the scan returned", open)
			}
			tc.check(t, res, err, panicked)
			// A joined build may be a few instructions from exiting.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before the scan, %d after:\n%s",
						before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
			}
			if ledger.late {
				t.Error("a build started after the scan returned")
			}
		})
	}
}

func TestObserverSeesAllStagesInOrder(t *testing.T) {
	c := testCase(24)
	sink := obs.NewStageSink(obs.NewRegistry())
	ctx := obs.WithSink(context.Background(), sink)
	res, err := registerCase(ctx, fastConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	events := sink.Events()
	if len(events) != len(Stages) || len(res.Timings) != len(Stages) {
		t.Fatalf("sink saw %d stages, Timings has %d, want %d", len(events), len(res.Timings), len(Stages))
	}
	for i, want := range Stages {
		e := events[i]
		if e.Stage != want || !e.Done || res.Timings[i].Name != want {
			t.Errorf("stage %d: %q (done=%v), Timings %q, want %q", i, e.Stage, e.Done, res.Timings[i].Name, want)
		}
		if e.Err != nil {
			t.Errorf("stage %s reported error: %v", e.Stage, e.Err)
		}
		if e.Elapsed != res.Timings[i].Elapsed {
			t.Errorf("stage %s: sink says %v, Timings %v", e.Stage, e.Elapsed, res.Timings[i].Elapsed)
		}
	}
}

// TestMisSizedSolverPartitionRejected: a Solver.Partition is refused by
// NewSession. It used to replace the Ranks partition silently,
// and one that does not cover the system (seven rows of 2,061 here)
// factorized a fragment of it: the preconditioned residual was ≈ 0 at
// entry, so the run returned err == nil, Converged after 1 iteration,
// and the rigid-only answer labelled as a biomechanical one.
func TestMisSizedSolverPartitionRejected(t *testing.T) {
	c := testCase(24)
	cfg := fastConfig()
	cfg.Solver.Partition = par.Partition{N: 7, P: 3, Starts: []int{0, 2, 4, 7}}
	res, err := registerCase(context.Background(), cfg, c)
	if err == nil {
		t.Errorf("accepted the partition: %v, match %.3f against rigid-only %.3f",
			res.SolveStats, res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
	} else if !strings.Contains(err.Error(), "Solver.Partition") {
		t.Errorf("error %q does not name Solver.Partition", err)
	}
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"MeshCellSize", func(c *Config) { c.MeshCellSize = 0 }, "MeshCellSize"},
		{"Ranks", func(c *Config) { c.Ranks = -1 }, "Ranks"},
		{"KNN", func(c *Config) { c.KNN = 0 }, "KNN"},
		{"PrototypesPerClass", func(c *Config) { c.PrototypesPerClass = 0 }, "PrototypesPerClass"},
		{"EDTSaturation", func(c *Config) { c.EDTSaturation = -2 }, "EDTSaturation"},
		{"Solver.Partition", func(c *Config) { c.Solver.Partition = par.Even(12, 2) }, "Solver.Partition"},
		{"Solver.Tol=NaN", func(c *Config) { c.Solver.Tol = math.NaN() }, "Solver.Tol"},
		{"Solver.Tol=Inf", func(c *Config) { c.Solver.Tol = math.Inf(1) }, "Solver.Tol"},
		{"Solver.Tol<0", func(c *Config) { c.Solver.Tol = -1e-3 }, "Solver.Tol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name field %s", err, tc.want)
			}
			if _, sessErr := NewSession(cfg, nil, nil); sessErr == nil ||
				!strings.Contains(sessErr.Error(), tc.want) {
				t.Errorf("NewSession err = %v, want validation error", sessErr)
			}
		})
	}
}
