package core

import (
	"sync"
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
	run := &caseRun{pathCase: clinicalCase, scans: clinicalCase.scans()}
	c, res := run.scans[0], run.reference(t).res[0]
	if c.Grid.NX != 128 || c.Grid.NZ != 48 {
		t.Fatalf("grid = %v", c.Grid)
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
}

// clinicalCase is the suite's row at the clinical geometry: an 8 mm
// scan and a 9 mm update, whose band is three voxels of the largest
// spacing, 9 mm, not 3. Its scans and its reference stream are made
// once per process, for the row and for
// TestPipelineAnisotropicClinicalGeometry.
var clinicalCase = pathCase{name: "clinical", long: true, bandOnly: true, shared: true, cfg: fastConfig,
	scans: sync.OnceValue(func() []*phantom.Case {
		p := phantom.DefaultParams(0)
		p.Dims = [3]int{128, 128, 48}
		p.SpacingVec = geom.V(1.5, 1.5, 3)
		p.NoiseStd = 2
		return streamScans(p, []float64{8, 9})
	})}
