package surface

import (
	"context"
	"errors"
	"testing"

	"repro/internal/edt"
	"repro/internal/volume"
)

func TestEvolveContextCancelled(t *testing.T) {
	n := 32
	src := brainSurface(t, sphereLabels(n, 11))
	phi := edt.SignedOfSet(sphereLabels(n, 8),
		func(l volume.Label) bool { return l == volume.LabelBrain }, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvolveContext(ctx, src, SignedDistanceForce{Phi: phi}, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEvolveContextBackgroundMatchesEvolve(t *testing.T) {
	// The ctx-aware entry point must not change the evolution result.
	n := 32
	src := brainSurface(t, sphereLabels(n, 11))
	phi := edt.SignedOfSet(sphereLabels(n, 8),
		func(l volume.Label) bool { return l == volume.LabelBrain }, 0)
	a, err := EvolveContext(context.Background(), src, SignedDistanceForce{Phi: phi}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvolveContext(context.Background(), src, SignedDistanceForce{Phi: phi}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.MeanDisp != b.MeanDisp {
		t.Errorf("Evolve (%d iters, %v) and EvolveContext (%d iters, %v) diverge",
			a.Iterations, a.MeanDisp, b.Iterations, b.MeanDisp)
	}
}
