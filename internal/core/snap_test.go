package core

import (
	"context"
	"testing"
)

// TestSnapMeshImprovesOrMatchesAccuracy compares the pipeline with and
// without anatomy-conforming mesh snapping: the snapped geometry must
// not hurt ground-truth field accuracy, and typically improves it by
// removing the voxel staircase from the FEM boundary.
func TestSnapMeshImprovesOrMatchesAccuracy(t *testing.T) {
	c := testCase(32)
	plain := fastConfig()
	snapped := fastConfig()
	snapped.SnapMesh = true

	rPlain, err := registerCase(context.Background(), plain, c)
	if err != nil {
		t.Fatal(err)
	}
	rSnap, err := registerCase(context.Background(), snapped, c)
	if err != nil {
		t.Fatal(err)
	}
	rmsPlain, _, err := c.TruthRMS(rPlain.Backward)
	if err != nil {
		t.Fatal(err)
	}
	rmsSnap, _, err := c.TruthRMS(rSnap.Backward)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("field RMS vs truth: plain %.3f mm, snapped %.3f mm", rmsPlain, rmsSnap)
	if rmsSnap > rmsPlain*1.1 {
		t.Errorf("snapping degraded accuracy: %.3f -> %.3f mm", rmsPlain, rmsSnap)
	}
	if !rSnap.SolveStats.Converged {
		t.Error("snapped-mesh solve did not converge")
	}
	if err := rSnap.Mesh.CheckConsistency(); err != nil {
		t.Errorf("snapped mesh inconsistent: %v", err)
	}
}

// TestPipelineWithBCCMesh runs the pipeline on the body-centered-cubic
// lattice (the paper's "more regular connectivity" future work) and
// checks it matches the Kuhn mesh's accuracy.
func TestPipelineWithBCCMesh(t *testing.T) {
	c := testCase(32)
	cfg := fastConfig()
	cfg.UseBCCMesh = true
	res, err := registerCase(context.Background(), cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SolveStats.Converged {
		t.Fatal("BCC solve did not converge")
	}
	rms, _, err := c.TruthRMS(res.Backward)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := registerCase(context.Background(), fastConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	rmsPlain, _, err := c.TruthRMS(plain.Backward)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("field RMS vs truth: Kuhn %.3f mm, BCC %.3f mm", rmsPlain, rms)
	if rms > rmsPlain*1.25 {
		t.Errorf("BCC accuracy %.3f mm much worse than Kuhn %.3f mm", rms, rmsPlain)
	}
}
