package core

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/phantom"
	"repro/internal/volume"
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
	p.NoiseStd = 2
	st := phantom.GenerateStream(p, []float64{8, 9})
	c := st.Case
	if c.Grid.NX != 128 || c.Grid.NZ != 48 {
		t.Fatalf("grid = %v", c.Grid)
	}

	cfg := fastConfig()
	cfg.MeshCellSize = 2
	ctx := context.Background()
	band, regs := streamWith(t, ctx, cfg, c)
	res := regs[0]
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
	tissue, err := res.Backward.RMSDifference(c.Truth, c.TissueMask)
	if err != nil {
		t.Fatal(err)
	}
	tissueBase, err := volume.NewField(c.Grid).RMSDifference(c.Truth, c.TissueMask)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("anisotropic tissue RMS: %.3f mm (zero-field baseline %.3f mm, ratio %.3f)",
		tissue, tissueBase, tissue/tissueBase)
	if rms >= base {
		t.Errorf("no error reduction on anisotropic grid: %v vs baseline %v", rms, base)
	}
	// Match metric improves too.
	if res.MatchMeanAbsDiff >= res.RigidMeanAbsDiff {
		t.Errorf("match (%v) did not beat rigid (%v) on anisotropic grid",
			res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
	}

	// One update at 9 mm. The band's half-width is three voxels of the
	// largest spacing, 9 mm on this grid, not 3: the update must deliver
	// what a full classification delivers, bit for bit.
	intraop := st.Steps[0].Intraop
	within9 := 0
	for _, v := range band.base.phiBrain.Data {
		if v >= -9 && v <= 9 {
			within9++
		}
	}
	rb, got, err := updateBand(ctx, band, intraop)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := streamWith(t, ctx, cfg, c)
	rf, err := updateFull(ctx, full, intraop)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "anisotropic 9 mm update", rb, rf)
	if got.voxels != within9 {
		t.Errorf("band of %d voxels, want the %d within 9 mm of the last boundary", got.voxels, within9)
	}
	t.Logf("anisotropic 9 mm update: band of %d of %d voxels, fallback %v",
		got.voxels, c.Grid.Len(), got.fallback)
}
