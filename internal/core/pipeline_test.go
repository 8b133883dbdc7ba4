package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fem"
	"repro/internal/phantom"
	"repro/internal/transform"
	"repro/internal/volume"
)

// testCase generates a small neurosurgery case for pipeline tests.
func testCase(n int) *phantom.Case {
	p := phantom.DefaultParams(n)
	p.NoiseStd = 2
	p.ShiftMagnitude = 6
	return phantom.Generate(p)
}

// fastConfig shrinks optimizer budgets for test-sized volumes.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.SkipRigid = true // phantom pairs share a frame
	cfg.Surface.MaxIter = 300
	cfg.Surface.Tol = 0.001
	cfg.Solver.Tol = 1e-6
	cfg.Ranks = 2
	return cfg
}

// registerCase runs one full registration of the case's intraoperative scan
// through a fresh session, returning NewSession's error or Register's.
func registerCase(ctx context.Context, cfg Config, c *phantom.Case) (*Result, error) {
	sess, err := NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		return nil, err
	}
	return sess.Register(ctx, c.Intraop)
}

func TestPipelineEndToEndImprovesOnRigid(t *testing.T) {
	c := testCase(32)
	res, err := registerCase(context.Background(), fastConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	// Headline quality claim (Figure 4): "the quality of the match is
	// significantly better than can be obtained through rigid
	// registration alone."
	if res.MatchMeanAbsDiff >= res.RigidMeanAbsDiff {
		t.Errorf("biomechanical match (%v) did not improve on rigid alone (%v)",
			res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
	}
	improvement := (res.RigidMeanAbsDiff - res.MatchMeanAbsDiff) / res.RigidMeanAbsDiff
	if improvement < 0.1 {
		t.Errorf("improvement only %.0f%%, want significant (>= 10%%)", 100*improvement)
	}
	if !res.SolveStats.Converged {
		t.Error("FEM solve did not converge")
	}
	if res.Surface.MaxDisp <= 0 {
		t.Error("no surface displacement recovered")
	}
}

func TestPipelineRecoversDeformationDirection(t *testing.T) {
	c := testCase(32)
	res, err := registerCase(context.Background(), fastConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered backward field should correlate with the ground
	// truth: compare mean displacement vectors inside the brain.
	g := c.Grid
	var truthSum, gotSum float64
	var n int
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				idx := g.Index(i, j, k)
				if !c.BrainMask[idx] {
					continue
				}
				tr := c.Truth.At(i, j, k)
				got := res.Backward.At(i, j, k)
				if tr.Norm() < 0.5 {
					continue
				}
				truthSum += tr.Y // shift is along +y (craniotomy dir)
				gotSum += got.Y
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no displaced brain voxels")
	}
	meanTruth := truthSum / float64(n)
	meanGot := gotSum / float64(n)
	if meanTruth <= 0 {
		t.Fatalf("test setup: truth mean y-displacement %v not positive", meanTruth)
	}
	if meanGot < 0.3*meanTruth || meanGot > 2*meanTruth {
		t.Errorf("recovered mean y-displacement %v vs truth %v: wrong magnitude", meanGot, meanTruth)
	}
}

// TestPipelineStressMonitoring: the tissue stress behind the paper's
// "quantitative monitoring of treatment progress" is an on-demand
// analysis of a Result — the Strains, Stresses, VonMises chain on its
// Mesh and NodeDisplacements, not part of the scan — with plausible
// magnitudes.
func TestPipelineStressMonitoring(t *testing.T) {
	c := testCase(32)
	cfg := fastConfig()
	res, err := registerCase(context.Background(), cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	strains, err := fem.Strains(res.Mesh, res.NodeDisplacements)
	if err != nil {
		t.Fatal(err)
	}
	stresses, err := fem.Stresses(res.Mesh, strains, cfg.Materials)
	if err != nil {
		t.Fatal(err)
	}
	peak, sum := 0.0, 0.0
	for _, st := range stresses {
		vm := st.VonMises()
		sum += vm
		peak = math.Max(peak, vm)
	}
	if peak <= 0 {
		t.Error("no peak stress computed")
	}
	if mean := sum / float64(len(stresses)); mean <= 0 || mean > peak {
		t.Errorf("mean stress %v inconsistent with peak %v", mean, peak)
	}
	// A few-millimetre shift over a ~10mm lever in 3kPa tissue should
	// produce stresses in the tens-to-thousands of Pa, not megapascals.
	if peak > 1e6 {
		t.Errorf("peak stress %v Pa implausibly high", peak)
	}
}

func TestPipelineTimingsCoverAllStages(t *testing.T) {
	c := testCase(24)
	res, err := registerCase(context.Background(), fastConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{
		"rigid registration (MI)",
		"tissue classification (k-NN)",
		"mesh generation",
		"surface displacement",
		"biomechanical simulation",
		"resampling",
	}
	if len(res.Timings) != len(wantStages) {
		t.Fatalf("timings = %d stages, want %d", len(res.Timings), len(wantStages))
	}
	for i, want := range wantStages {
		if res.Timings[i].Name != want {
			t.Errorf("stage %d = %q, want %q", i, res.Timings[i].Name, want)
		}
	}
	if res.TotalTime() <= 0 {
		t.Error("zero total time")
	}
	tl := res.Timeline()
	for _, want := range append(wantStages, "TOTAL") {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
}

func TestPipelineClassificationQuality(t *testing.T) {
	c := testCase(32)
	res, err := registerCase(context.Background(), fastConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	dice, err := res.IntraopLabels.DiceCoefficient(c.IntraopLabels, volume.LabelBrain)
	if err != nil {
		t.Fatal(err)
	}
	if dice < 0.8 {
		t.Errorf("intraoperative brain Dice = %v, want >= 0.8", dice)
	}
}

func TestPipelineWithRigidMisalignment(t *testing.T) {
	// Shift the intraop scan rigidly: the pipeline's MI stage must
	// absorb the misalignment and the match must still beat rigid-only.
	c := testCase(32)
	cfg := fastConfig()
	cfg.SkipRigid = false
	cfg.Register.Levels = []int{2}
	cfg.Register.MaxIter = 4
	res, err := registerCase(context.Background(), cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchMeanAbsDiff >= res.RigidMeanAbsDiff {
		t.Errorf("match (%v) did not improve on rigid (%v) with MI stage enabled",
			res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
	}
}

func TestPipelineInputValidation(t *testing.T) {
	c := testCase(24)
	ctx := context.Background()
	if _, err := NewSession(fastConfig(), nil, c.PreopLabels); err == nil {
		t.Error("nil preop accepted")
	}
	if _, err := NewSession(fastConfig(), c.Preop, nil); err == nil {
		t.Error("nil labels accepted")
	}
	other := volume.NewLabels(volume.NewGrid(8, 8, 8, 1))
	if _, err := NewSession(fastConfig(), c.Preop, other); err == nil {
		t.Error("mismatched label shape accepted")
	}
	sess, err := NewSession(fastConfig(), c.Preop, c.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Register(ctx, nil); err == nil {
		t.Error("nil intraop accepted")
	}
	// SkipRigid with different grids must fail.
	smallIntraop := volume.NewScalar(volume.NewGrid(8, 8, 8, 1))
	if _, err := sess.Register(ctx, smallIntraop); err == nil {
		t.Error("SkipRigid with mismatched grids accepted")
	}
}

// TestMalformedVolumesRejected: a volume whose data is not its grid's
// voxel count, or whose grid is invalid, is an error at every entry
// point — not an index-out-of-range panic inside a classification
// worker, which would take down a whole service process.
func TestMalformedVolumesRejected(t *testing.T) {
	c := testCase(24)
	short := &volume.Scalar{Grid: c.Intraop.Grid, Data: c.Intraop.Data[:len(c.Intraop.Data)-1]}
	flat := c.Intraop.Clone()
	flat.Grid.Spacing.Z = 0
	shortLabels := &volume.Labels{Grid: c.PreopLabels.Grid, Data: c.PreopLabels.Data[:len(c.PreopLabels.Data)-1]}
	nanLabels := &volume.Labels{Grid: c.PreopLabels.Grid, Data: c.PreopLabels.Data}
	nanLabels.Grid.Spacing.X = math.NaN()
	ctx := context.Background()

	t.Run("NewSession", func(t *testing.T) {
		if _, err := NewSession(fastConfig(), short, c.PreopLabels); err == nil {
			t.Error("short preop accepted")
		}
		if _, err := NewSession(fastConfig(), c.Preop, shortLabels); err == nil {
			t.Error("short labels accepted")
		}
		if _, err := NewSession(fastConfig(), flat, c.PreopLabels); err == nil {
			t.Error("preop with zero spacing accepted")
		}
	})
	t.Run("RunContext", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			preop   *volume.Scalar
			labels  *volume.Labels
			intraop *volume.Scalar
		}{
			{"short intraop", c.Preop, c.PreopLabels, short},
			{"flat intraop", c.Preop, c.PreopLabels, flat},
			{"short preop", short, c.PreopLabels, c.Intraop},
			{"short labels", c.Preop, shortLabels, c.Intraop},
			{"labels with NaN spacing", c.Preop, nanLabels, c.Intraop},
		} {
			bad := &phantom.Case{Preop: tc.preop, PreopLabels: tc.labels, Intraop: tc.intraop}
			if _, err := registerCase(ctx, fastConfig(), bad); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		}
	})
	t.Run("Session", func(t *testing.T) {
		sess, err := NewSession(fastConfig(), c.Preop, c.PreopLabels)
		if err != nil {
			t.Fatal(err)
		}
		for name, bad := range map[string]*volume.Scalar{"short": short, "flat": flat} {
			if _, err := sess.Register(ctx, bad); err == nil {
				t.Errorf("Register accepted a %s scan", name)
			}
		}
		if _, err := sess.Register(ctx, c.Intraop); err != nil {
			t.Fatal(err)
		}
		for name, bad := range map[string]*volume.Scalar{"short": short, "flat": flat} {
			if _, err := sess.Update(ctx, bad); err == nil {
				t.Errorf("Update accepted a %s scan", name)
			}
		}
		// The rejected scans left the session usable and uncounted.
		if _, err := sess.Update(ctx, c.Intraop); err != nil {
			t.Errorf("update after rejected scans: %v", err)
		}
		if sess.ScanCount() != 2 {
			t.Errorf("ScanCount = %d, want 2", sess.ScanCount())
		}
	})
}

// oneSlice returns the plane of s through its middle sample across the
// given axis (0=x, 1=y, 2=z): a volume one sample thick along it.
func oneSlice(s *volume.Scalar, axis int) *volume.Scalar {
	g := s.Grid
	n := [3]int{g.NX, g.NY, g.NZ}
	mid := n[axis] / 2
	n[axis] = 1
	out := volume.NewScalar(volume.NewGrid(n[0], n[1], n[2], g.Spacing.X))
	for k := 0; k < n[2]; k++ {
		for j := 0; j < n[1]; j++ {
			for i := 0; i < n[0]; i++ {
				at := [3]int{i, j, k}
				at[axis] = mid
				out.Set(i, j, k, s.At(at[0], at[1], at[2]))
			}
		}
	}
	return out
}

// TestOneSampleAxisRejected: trilinear sampling needs two samples along
// every axis, so a volume one sample thick along any axis is an error
// at the boundary, from NewSession and from Register, not a panic in a
// stage.
func TestOneSampleAxisRejected(t *testing.T) {
	c := testCase(24)
	cfg := fastConfig()
	cfg.SkipRigid = false // the rigid stage samples the scan
	sess, err := NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	for axis, name := range []string{"x", "y", "z"} {
		t.Run(name, func(t *testing.T) {
			preop := oneSlice(c.Preop, axis)
			labels := volume.NewLabels(preop.Grid)
			dims := func(g volume.Grid) string { return fmt.Sprintf("%dx%dx%d grid", g.NX, g.NY, g.NZ) }
			if _, err := NewSession(cfg, preop, labels); err == nil ||
				!strings.Contains(err.Error(), "preoperative scan: "+dims(preop.Grid)) {
				t.Errorf("NewSession on a %v preop: err = %v, want the preoperative scan and its grid named", preop.Grid, err)
			}
			scan := oneSlice(c.Intraop, axis)
			if _, err := sess.Register(context.Background(), scan); err == nil ||
				!strings.Contains(err.Error(), "intraoperative scan: "+dims(scan.Grid)) {
				t.Errorf("Register on a %v scan: err = %v, want the intraoperative scan and its grid named", scan.Grid, err)
			}
		})
	}
}

// TestHeadPoseOnGridFaceRegisters: a head moved by 0.03 rad about z and
// 1.5 mm along y pushes brain voxels of the resampled preoperative
// labels onto the grid's far faces; with one-voxel mesh cells that
// once made zero-volume tets, and the registration failed in the FEM
// assembly. It registers now, and the solve converges.
func TestHeadPoseOnGridFaceRegisters(t *testing.T) {
	p := phantom.DefaultParams(28)
	p.NoiseStd = 2
	c := phantom.Generate(p)
	pose := transform.Identity(c.Grid.Center())
	pose.RZ, pose.TY = 0.03, 1.5
	cfg := DefaultConfig()
	cfg.MeshCellSize = 1
	cfg.Ranks = 2
	sess, err := NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Register(context.Background(), transform.ResampleScalar(c.Intraop, pose, c.Grid))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || !res.SolveStats.Converged {
		t.Errorf("degraded %v, solve %v", res.Degraded, res.SolveStats)
	}
}
