package core

import (
	"context"
	"testing"

	"repro/internal/phantom"
)

// triangleWave is a streamed shift schedule: from lo to hi and back in
// step increments, cycles times over, lo first.
func triangleWave(lo, hi, step float64, cycles int) []float64 {
	s := []float64{lo}
	for c := 0; c < cycles; c++ {
		for v := lo + step; v <= hi; v += step {
			s = append(s, v)
		}
		for v := hi - step; v >= lo; v -= step {
			s = append(s, v)
		}
	}
	return s
}

// TestStreamKeepsItsModel: a session streaming a noisy triangle-wave
// shift keeps every prototype of its statistical model — the robust
// refresh rejects outliers for one scan, not for good — and every
// update's match residual stays below the rigid-only one. A model that
// lost the prototypes each refresh rejected shrank scan by scan (240 to
// 153 over two periods) until the classified brain, and with it the
// match, collapsed: from update 22 on, 31 of 56 updates matched worse
// than rigid-only. Short mode streams one period (28 updates).
func TestStreamKeepsItsModel(t *testing.T) {
	p := phantom.DefaultParams(28)
	p.NoiseStd = 2
	cycles := 2
	if testing.Short() {
		cycles = 1
	}
	st := phantom.GenerateStream(p, triangleWave(3, 6.5, 0.25, cycles))
	ctx := context.Background()
	sess, err := NewSession(fastConfig(), st.Case.Preop, st.Case.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(ctx, st.Case.Intraop); err != nil {
		t.Fatal(err)
	}
	protos := sess.PrototypeCount()
	worst := 0.0
	for i, step := range st.Steps {
		res, err := sess.Update(ctx, step.Intraop)
		if err != nil {
			t.Fatalf("update %d: %v", i+1, err)
		}
		if n := sess.PrototypeCount(); n != protos {
			t.Errorf("update %d (%.2f mm): %d prototypes, the model had %d", i+1, step.ShiftMagnitude, n, protos)
		}
		if res.MatchMeanAbsDiff >= res.RigidMeanAbsDiff {
			t.Errorf("update %d (%.2f mm): match residual %.3f not below rigid-only %.3f",
				i+1, step.ShiftMagnitude, res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
		}
		worst = max(worst, res.MatchMeanAbsDiff/res.RigidMeanAbsDiff)
	}
	t.Logf("%d updates, %d prototypes, worst match/rigid-only residual ratio %.3f", len(st.Steps), protos, worst)
}
