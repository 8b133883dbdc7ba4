package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/phantom"
	"repro/internal/volume"
)

func TestSessionMultipleScans(t *testing.T) {
	// Two successive intraoperative scans: a mild early shift and the
	// paper's end-of-resection state.
	p1 := phantom.DefaultParams(32)
	p1.ShiftMagnitude = 3
	c1 := phantom.Generate(p1)
	p2 := p1
	p2.ShiftMagnitude = 6
	c2 := phantom.Generate(p2)

	sess, err := NewSession(fastConfig(), c1.Preop, c1.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if sess.PrototypeCount() != 0 {
		t.Error("prototypes exist before first scan")
	}
	r1, err := sess.Register(context.Background(), c1.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	nProto := sess.PrototypeCount()
	if nProto == 0 {
		t.Fatal("first scan did not build the statistical model")
	}
	r2, err := sess.Register(context.Background(), c2.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	// The robust refresh may drop prototypes whose tissue changed, but
	// never grows the model and never guts it.
	if got := sess.PrototypeCount(); got > nProto || got < nProto/2 {
		t.Errorf("prototype count %d after refresh, had %d", got, nProto)
	}
	if sess.ScanCount() != 2 {
		t.Errorf("scan count = %d", sess.ScanCount())
	}
	// Both registrations must beat rigid-only at the boundary.
	for i, r := range []*Result{r1, r2} {
		if r.MatchMeanAbsDiff >= r.RigidMeanAbsDiff {
			t.Errorf("scan %d: match %v did not beat rigid %v", i+1,
				r.MatchMeanAbsDiff, r.RigidMeanAbsDiff)
		}
	}
	// The larger shift produces the larger recovered surface motion.
	if r2.Surface.MaxDisp <= r1.Surface.MaxDisp {
		t.Errorf("scan 2 max displacement (%v) not larger than scan 1 (%v)",
			r2.Surface.MaxDisp, r1.Surface.MaxDisp)
	}
}

func TestSessionRefreshAbsorbsIntensityDrift(t *testing.T) {
	// The paper's motivation for the refresh: "intrinsic MR scanner
	// intensity variability causes a small variation in the observed
	// voxel intensities from scan to scan". Scale the second scan's
	// intensities by 15% — the refreshed model must still classify it
	// well.
	p := phantom.DefaultParams(32)
	p.ShiftMagnitude = 4
	c := phantom.Generate(p)

	sess, err := NewSession(fastConfig(), c.Preop, c.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(context.Background(), c.Intraop); err != nil {
		t.Fatal(err)
	}
	drifted := c.Intraop.Clone()
	rng := rand.New(rand.NewSource(99))
	for i := range drifted.Data {
		drifted.Data[i] = drifted.Data[i]*1.15 + float32(rng.NormFloat64())
	}
	r2, err := sess.Register(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	dice, err := r2.IntraopLabels.DiceCoefficient(c.IntraopLabels, volume.LabelBrain)
	if err != nil {
		t.Fatal(err)
	}
	if dice < 0.8 {
		t.Errorf("drifted-scan brain Dice = %v, want >= 0.8 after model refresh", dice)
	}
}

func TestSessionValidation(t *testing.T) {
	c := testCase(24)
	if _, err := NewSession(fastConfig(), nil, c.PreopLabels); err == nil {
		t.Error("nil preop accepted")
	}
	if _, err := NewSession(fastConfig(), c.Preop, nil); err == nil {
		t.Error("nil labels accepted")
	}
	other := volume.NewLabels(volume.NewGrid(8, 8, 8, 1))
	if _, err := NewSession(fastConfig(), c.Preop, other); err == nil {
		t.Error("shape mismatch accepted")
	}
	sess, err := NewSession(fastConfig(), c.Preop, c.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(context.Background(), nil); err == nil {
		t.Error("nil intraop accepted")
	}
	if sess.ScanCount() != 0 {
		t.Error("failed scan was recorded")
	}
}

// TestSessionHoldsNoResult: a Result belongs to its caller. Once the
// caller drops it the collector may take it — five dense volumes per
// scan — while the session, which only counts its scans, lives on.
func TestSessionHoldsNoResult(t *testing.T) {
	c := testCase(24)
	sess, err := NewSession(fastConfig(), c.Preop, c.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		res, err := sess.Register(context.Background(), c.Intraop)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(res, func(*Result) { close(freed) })
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			if sess.ScanCount() != 1 || !sess.HasBaseline() {
				t.Errorf("session lost its state: %d scans, baseline %v", sess.ScanCount(), sess.HasBaseline())
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the session still pins a Result its caller dropped")
		}
	}
}
