package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/phantom"
)

// modelOf deep-copies the session's statistical model.
func modelOf(s *Session) []classify.Prototype {
	return s.base.cl.Clone().Prototypes
}

// streamPair generates a baseline scan and a later scan of the same
// case with a grown brain shift — the streaming acquisition pattern.
func streamPair(t *testing.T) (*phantom.Case, *phantom.Case) {
	t.Helper()
	p1 := phantom.DefaultParams(32)
	p1.ShiftMagnitude = 3
	p2 := p1
	p2.ShiftMagnitude = 5
	return phantom.Generate(p1), phantom.Generate(p2)
}

// TestUpdateEquivalentToColdRegister is the warm-start equivalence
// test of the incremental path: registering the second scan through
// Update must land on the same displacement field — and the same
// match quality — as a cold Register of the same scan, because the
// patched system is mathematically identical to the re-assembled one.
func TestUpdateEquivalentToColdRegister(t *testing.T) {
	c1, c2 := streamPair(t)
	ctx := context.Background()

	cold, err := NewSession(fastConfig(), c1.Preop, c1.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewSession(fastConfig(), c1.Preop, c1.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if warm.HasBaseline() {
		t.Fatal("baseline claimed before any registration")
	}
	if _, err := cold.Register(ctx, c1.Intraop); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Register(ctx, c1.Intraop); err != nil {
		t.Fatal(err)
	}
	if !warm.HasBaseline() {
		t.Fatal("successful Register did not establish a baseline")
	}

	rc, err := cold.Register(ctx, c2.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := warm.Update(ctx, c2.Intraop)
	if err != nil {
		t.Fatal(err)
	}

	if !ru.Incremental || ru.Update == nil {
		t.Fatal("update result not marked incremental")
	}
	if rc.Incremental {
		t.Fatal("cold result marked incremental")
	}
	if !ru.Update.WarmStarted || !ru.Update.PCCacheHit {
		t.Fatalf("update did not reuse the baseline: %+v", ru.Update)
	}
	if ru.Update.DOFsPatched == 0 {
		t.Fatal("grown shift patched no Dirichlet DOFs")
	}
	if ru.SolveStats.EntryResRel >= 1 {
		t.Errorf("warm seed entry residual %g not below a cold start", ru.SolveStats.EntryResRel)
	}
	if !ru.SolveStats.Converged {
		t.Fatalf("update solve did not converge: %+v", ru.SolveStats)
	}

	// The update path runs only the intraoperative stage subset.
	want := []string{StageClassify, StageSurface, StageSolve, StageResample}
	if len(ru.Timings) != len(want) {
		t.Fatalf("update ran %d stages %v, want %v", len(ru.Timings), ru.Timings, want)
	}
	for i, s := range want {
		if ru.Timings[i].Name != s {
			t.Fatalf("update stage %d = %q, want %q", i, ru.Timings[i].Name, s)
		}
	}

	// Displacement-field equivalence (the acceptance criterion): same
	// mesh, so nodal displacements are directly comparable.
	if len(ru.NodeDisplacements) != len(rc.NodeDisplacements) {
		t.Fatalf("node count differs: %d vs %d", len(ru.NodeDisplacements), len(rc.NodeDisplacements))
	}
	maxDiff := 0.0
	for n := range ru.NodeDisplacements {
		if d := ru.NodeDisplacements[n].Sub(rc.NodeDisplacements[n]).MaxAbs(); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Errorf("update diverged from cold solve by %g mm at a node (want <= 1e-3)", maxDiff)
	}

	// And the delivered image quality must match the cold path's.
	if ru.MatchMeanAbsDiff >= ru.RigidMeanAbsDiff {
		t.Errorf("update match %v did not beat rigid %v", ru.MatchMeanAbsDiff, ru.RigidMeanAbsDiff)
	}
	reldiff := (ru.MatchMeanAbsDiff - rc.MatchMeanAbsDiff) / rc.MatchMeanAbsDiff
	if reldiff > 0.01 || reldiff < -0.01 {
		t.Errorf("update match quality %v differs from cold %v by %.2f%%",
			ru.MatchMeanAbsDiff, rc.MatchMeanAbsDiff, 100*reldiff)
	}

	if warm.ScanCount() != 2 {
		t.Errorf("scan count = %d after Register+Update, want 2", warm.ScanCount())
	}
}

func TestUpdateWithoutBaseline(t *testing.T) {
	c1, _ := streamPair(t)
	sess, err := NewSession(fastConfig(), c1.Preop, c1.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(context.Background(), c1.Intraop); !errors.Is(err, ErrNoBaseline) {
		t.Fatalf("Update before Register: err = %v, want ErrNoBaseline", err)
	}
}

// TestUpdateCancellationMidUpdate cancels the context while the update
// is evolving the surface: the update must abort with a *StageError
// naming the surface stage, not advance the session, and leave the
// baseline intact for a retry.
func TestUpdateCancellationMidUpdate(t *testing.T) {
	c1, c2 := streamPair(t)
	sess, err := NewSession(fastConfig(), c1.Preop, c1.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(context.Background(), c1.Intraop); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, uerr := sess.Update(atStage(ctx, StageSurface, cancel), c2.Intraop)
	if !errors.Is(uerr, context.Canceled) {
		t.Fatalf("mid-update cancellation: err = %v, want context.Canceled", uerr)
	}
	var se *StageError
	if !errors.As(uerr, &se) || se.Stage != StageSurface {
		t.Fatalf("cancellation not attributed to the surface stage: %v", uerr)
	}
	if sess.ScanCount() != 1 {
		t.Errorf("canceled update was recorded (scan count %d)", sess.ScanCount())
	}

	// The baseline survives; a retry with a live context succeeds.
	if !sess.HasBaseline() {
		t.Fatal("cancellation destroyed the baseline")
	}
	ru, err := sess.Update(context.Background(), c2.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if !ru.SolveStats.Converged || !ru.Update.PCCacheHit {
		t.Fatalf("retry after cancellation did not reuse the baseline: %+v", ru.Update)
	}
}

// TestUpdateDeadlineDegradesClinically checks the clinical fallback on
// the update path: a deadline that expires as the incremental solve
// starts yields the rigid-only Degraded result rather than an error,
// exactly like the cold path.
func TestUpdateDeadlineDegradesClinically(t *testing.T) {
	c1, c2 := streamPair(t)
	sess, err := NewSession(fastConfig(), c1.Preop, c1.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(context.Background(), c1.Intraop); err != nil {
		t.Fatal(err)
	}

	model := modelOf(sess)
	ctx := newExpirableCtx()
	res, err := sess.Update(atStage(ctx, StageSolve, ctx.expire), c2.Intraop)
	if err != nil {
		t.Fatalf("deadline after surface must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("update result not marked Degraded")
	}
	// The classification stage refreshed the prototypes before the
	// deadline hit; the session's model must not have moved.
	if got := modelOf(sess); !reflect.DeepEqual(got, model) {
		t.Errorf("degraded update advanced the statistical model: %d prototypes, had %d",
			len(got), len(model))
	}
	if !res.Incremental {
		t.Error("degraded update lost the Incremental mark")
	}
	if res.Warped != res.AlignedPreop {
		t.Error("degraded update did not deliver the rigid-only image")
	}
	if res.NodeDisplacements != nil {
		t.Error("degraded update carries a displacement field")
	}
	// The degraded scan is recorded but must not advance the warm-start
	// seed; the next update still solves against the last good baseline.
	ru, err := sess.Update(context.Background(), c2.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if !ru.SolveStats.Converged || !ru.Update.PCCacheHit {
		t.Fatalf("update after degraded scan did not reuse the baseline: %+v", ru.Update)
	}
}

// TestUpdateDeadlineAfterSolveDeliversNoStresses is the update-path twin
// of TestRunContextDeadlineAfterSolveDeliversNoStresses.
func TestUpdateDeadlineAfterSolveDeliversNoStresses(t *testing.T) {
	c1, c2 := streamPair(t)
	sess, err := NewSession(fastConfig(), c1.Preop, c1.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(context.Background(), c1.Intraop); err != nil {
		t.Fatal(err)
	}
	ctx := newExpirableCtx()
	res, err := sess.Update(afterStage(ctx, StageSolve, ctx.expire), c2.Intraop)
	checkDegradedWithSolutionInHand(t, res, err)
	if !res.Incremental {
		t.Error("degraded update lost the Incremental mark")
	}
}

// TestFailedScanLeavesModelUntouched covers the other ways a scan can
// end after its classification stage refreshed the prototypes — a
// Register against an existing model degrading at the solve, and either
// call cancelled mid-solve: none may advance the session's statistical
// model, and the next update still builds on the last good baseline.
func TestFailedScanLeavesModelUntouched(t *testing.T) {
	c1, c2 := streamPair(t)
	for _, tc := range []struct {
		name   string
		scan   func(*Session, context.Context) (*Result, error)
		cancel bool
	}{
		{"Register degraded", func(s *Session, ctx context.Context) (*Result, error) { return s.Register(ctx, c2.Intraop) }, false},
		{"Register cancelled", func(s *Session, ctx context.Context) (*Result, error) { return s.Register(ctx, c2.Intraop) }, true},
		{"Update cancelled", func(s *Session, ctx context.Context) (*Result, error) { return s.Update(ctx, c2.Intraop) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewSession(fastConfig(), c1.Preop, c1.PreopLabels)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Register(context.Background(), c1.Intraop); err != nil {
				t.Fatal(err)
			}
			model := modelOf(sess)

			var ctx context.Context
			var stop func()
			if tc.cancel {
				ctx, stop = context.WithCancel(context.Background())
			} else {
				ectx := newExpirableCtx()
				ctx, stop = ectx, ectx.expire
			}
			defer stop()
			res, err := tc.scan(sess, atStage(ctx, StageSolve, stop))
			if tc.cancel {
				var se *StageError
				if !errors.Is(err, context.Canceled) || !errors.As(err, &se) || se.Stage != StageSolve {
					t.Fatalf("err = %v, want context.Canceled at the solve stage", err)
				}
			} else if err != nil || !res.Degraded {
				t.Fatalf("res = %+v, err = %v, want a degraded result", res, err)
			}
			if got := modelOf(sess); !reflect.DeepEqual(got, model) {
				t.Errorf("scan advanced the statistical model: %d prototypes, had %d", len(got), len(model))
			}
			ru, err := sess.Update(context.Background(), c2.Intraop)
			if err != nil {
				t.Fatal(err)
			}
			if !ru.SolveStats.Converged || !ru.Update.PCCacheHit {
				t.Fatalf("update after the failed scan did not reuse the baseline: %+v", ru.Update)
			}
		})
	}
}
