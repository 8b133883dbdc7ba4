package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// bandAttrs is what a classify stage span records of the narrow band;
// set is false on a scan that classified the whole grid from the start.
type bandAttrs struct {
	set      bool
	voxels   int
	fallback bool
}

// bandSink is a sink on the obs span seam that keeps the band
// attributes of the classify stage span.
type bandSink struct{ got *bandAttrs }

func (bandSink) SpanStarted(obs.SpanInfo) {}

func (s bandSink) SpanEnded(f obs.FinishedSpan) {
	if !f.Stage || f.Name != StageClassify {
		return
	}
	if n, ok := f.Attrs["band_voxels"].(int); ok {
		*s.got = bandAttrs{set: true, voxels: n, fallback: f.Attrs["band_fallback"] == true}
	}
}

// updateBand is Session.Update, returning with the result what its
// classify stage recorded of the band.
func updateBand(ctx context.Context, s *Session, intraop *volume.Scalar) (*Result, bandAttrs, error) {
	var got bandAttrs
	res, err := s.Update(obs.WithSink(ctx, bandSink{&got}), intraop)
	return res, got, err
}

// updateFull is Session.Update with the narrow band off: without the
// last scan's classification in its baseline, an update classifies
// every voxel, as a registration does.
func updateFull(ctx context.Context, s *Session, intraop *volume.Scalar) (*Result, error) {
	s.base.labels, s.base.phiBrain = nil, nil
	res, got, err := updateBand(ctx, s, intraop)
	if err == nil && got.set {
		panic("updateFull: the update classified a band")
	}
	return res, err
}

// registerPair registers the case's scan in two sessions: one to update
// through the band, one through updateFull.
func registerPair(t *testing.T, ctx context.Context, cfg Config, c *phantom.Case) (band, full *Session) {
	t.Helper()
	band, _ = streamWith(t, ctx, cfg, c)
	full, _ = streamWith(t, ctx, cfg, c)
	return band, full
}

// TestUpdateBandMatchesFullClassification: over a 14-update stream of
// 0.5 mm steps at two seeds, an update that classifies only the band
// around the last scan's brain boundary delivers the displacements and
// the warped image of one that classifies every voxel, bit for bit,
// without once falling back to the full grid. Short mode streams the
// first five updates of the first seed.
func TestUpdateBandMatchesFullClassification(t *testing.T) {
	ctx := context.Background()
	seeds, updates := []int64{1, 2}, 14
	if testing.Short() {
		seeds, updates = seeds[:1], 5
	}
	for _, seed := range seeds {
		p := phantom.DefaultParams(32)
		p.NoiseStd = 2
		p.Seed = seed
		st := phantom.GenerateStream(p, triangleWave(3, 6.5, 0.5, 1))
		if len(st.Steps) != 14 {
			t.Fatalf("%d updates, want 14", len(st.Steps))
		}
		band, full := registerPair(t, ctx, fastConfig(), st.Case)
		n := st.Case.Grid.Len()
		minFrac, maxFrac := 1.0, 0.0
		for i, step := range st.Steps[:updates] {
			rb, got, err := updateBand(ctx, band, step.Intraop)
			if err != nil {
				t.Fatalf("seed %d, update %d: %v", seed, i+1, err)
			}
			rf, err := updateFull(ctx, full, step.Intraop)
			if err != nil {
				t.Fatalf("seed %d, update %d (full grid): %v", seed, i+1, err)
			}
			sameResult(t, fmt.Sprintf("seed %d, update %d", seed, i+1), rb, rf)
			if !got.set || got.fallback || got.voxels == 0 || got.voxels >= n {
				t.Errorf("seed %d, update %d (%.2f mm): band %+v of %d voxels, want a band without fallback",
					seed, i+1, step.ShiftMagnitude, got, n)
			}
			frac := float64(got.voxels) / float64(n)
			minFrac, maxFrac = min(minFrac, frac), max(maxFrac, frac)
		}
		t.Logf("seed %d: %d updates bit-identical to full classification, band %.1f–%.1f%% of the grid",
			seed, updates, 100*minFrac, 100*maxFrac)
	}
}

// TestUpdateBandFallsBackOnJump: a scan whose brain moved 6 mm past
// the last one, twice the band's half-width, changes brain membership
// in the band's outer shell, so the update classifies the whole grid,
// and delivers what a full classification delivers.
func TestUpdateBandFallsBackOnJump(t *testing.T) {
	ctx := context.Background()
	st := phantom.GenerateStream(phantom.DefaultParams(32), []float64{3, 9})
	band, full := registerPair(t, ctx, fastConfig(), st.Case)
	intraop := st.Steps[0].Intraop
	rb, got, err := updateBand(ctx, band, intraop)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := updateFull(ctx, full, intraop)
	if err != nil {
		t.Fatal(err)
	}
	if !got.fallback {
		t.Errorf("3 → 9 mm update: band %+v, want the fallback taken", got)
	}
	sameResult(t, "3 → 9 mm update", rb, rf)
	for i, l := range rf.IntraopLabels.Data {
		if rb.IntraopLabels.Data[i] != l {
			t.Fatalf("voxel %d: fallback label %d, full classification %d", i, rb.IntraopLabels.Data[i], l)
		}
	}
}

// TestUpdateIgnoresCallerLabelWrites: a Result's IntraopLabels belong
// to the caller, and writing into them changes nothing a later update
// delivers: the baseline keeps its own copy.
func TestUpdateIgnoresCallerLabelWrites(t *testing.T) {
	ctx := context.Background()
	scans := shiftScans(24)
	_, want := streamWith(t, ctx, fastConfig(), scans[:]...)
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
