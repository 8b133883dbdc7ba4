package core

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/phantom"
)

// TestPipelineAnisotropicClinicalGeometry runs the full pipeline on a
// non-cubic, anisotropic acquisition like the paper's intraoperative
// scans (axial slabs with thick slices) — every earlier test used cubic
// 1mm grids, and anisotropy is where world/voxel conversion bugs hide.
// The grid is 128x128x48 at (1.5, 1.5, 3) mm spacing — the thick-slice
// axial-slab geometry of the paper's 256x256x60 acquisitions at reduced
// in-plane resolution so the test stays fast.
func TestPipelineAnisotropicClinicalGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("anisotropic clinical-geometry test skipped in -short mode")
	}
	p := phantom.DefaultParams(0)
	p.Dims = [3]int{128, 128, 48}
	p.SpacingVec = geom.V(1.5, 1.5, 3)
	p.ShiftMagnitude = 8
	p.NoiseStd = 2
	c := phantom.Generate(p)
	if c.Grid.NX != 128 || c.Grid.NZ != 48 {
		t.Fatalf("grid = %v", c.Grid)
	}

	cfg := fastConfig()
	cfg.MeshCellSize = 2
	res, err := registerCase(context.Background(), cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SolveStats.Converged {
		t.Fatal("solve did not converge on anisotropic grid")
	}
	if err := res.Mesh.CheckConsistency(); err != nil {
		t.Fatalf("anisotropic mesh inconsistent: %v", err)
	}
	// The recovered field must still reduce the ground-truth error.
	// Baseline: the zero field (rigid registration alone).
	rms, base, err := c.TruthRMS(res.Backward)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("anisotropic field RMS: %.3f mm (zero-field baseline %.3f mm)", rms, base)
	if rms >= base {
		t.Errorf("no error reduction on anisotropic grid: %v vs baseline %v", rms, base)
	}
	// Match metric improves too.
	if res.MatchMeanAbsDiff >= res.RigidMeanAbsDiff {
		t.Errorf("match (%v) did not beat rigid (%v) on anisotropic grid",
			res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
	}
}
