package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/volume"
)

// modelOf deep-copies the session's statistical model.
func modelOf(s *Session) []classify.Prototype {
	return s.base.cl.Clone().Prototypes
}

func TestUpdateWithoutBaseline(t *testing.T) {
	c1 := shiftScans(24, 1)[0]
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
	scans := shiftScans(24, 1)
	sess, c2 := runStream(t, fastConfig(), viaBand, scans[0]).sess, scans[1]

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
	scans := shiftScans(24, 1)
	sess, c2 := runStream(t, fastConfig(), viaBand, scans[0]).sess, scans[1]

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
	scans := shiftScans(24, 1)
	sess, c2 := runStream(t, fastConfig(), viaBand, scans[0]).sess, scans[1]
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
	scans := shiftScans(24, 1)
	c1, c2 := scans[0], scans[1]
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
			sess := runStream(t, fastConfig(), viaBand, c1).sess
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

// TestUpdateIgnoresCallerLabelWrites: a Result's IntraopLabels belong
// to the caller, and writing into them changes nothing a later update
// delivers: the baseline keeps its own copy.
func TestUpdateIgnoresCallerLabelWrites(t *testing.T) {
	ctx := context.Background()
	scans := shiftScans(24, 1)
	want := runStream(t, fastConfig(), viaBand, scans...).res
	sess, err := NewSession(fastConfig(), scans[0].Preop, scans[0].PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range scans {
		step := sess.Update
		if i == 0 {
			step = sess.Register
		}
		res, err := step(ctx, c.Intraop)
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		sameResult(t, fmt.Sprintf("scan %d after the caller's writes", i), res, want[i])
		for j, l := range want[i].IntraopLabels.Data {
			if res.IntraopLabels.Data[j] != l {
				t.Fatalf("scan %d, voxel %d: label %d, want %d", i, j, res.IntraopLabels.Data[j], l)
			}
		}
		for j := range res.IntraopLabels.Data {
			res.IntraopLabels.Data[j] = volume.LabelSkull
		}
	}
}
