package core

import (
	"context"
	"testing"
)

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
