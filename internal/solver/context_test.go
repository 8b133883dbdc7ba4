package solver

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// cancellingPC wraps a preconditioner and cancels a context after a
// fixed number of applications — a deterministic way to cancel in the
// middle of a restart cycle without racing a timer.
type cancellingPC struct {
	inner   Preconditioner
	applies int
	after   int
	cancel  context.CancelFunc
}

func (p *cancellingPC) Apply(r, z []float64) {
	p.applies++
	if p.applies == p.after {
		p.cancel()
	}
	p.inner.Apply(r, z)
}

func (p *cancellingPC) Name() string { return "cancelling(" + p.inner.Name() + ")" }

func TestGMRESContextPreCancelled(t *testing.T) {
	a := laplacian1D(50)
	b := make([]float64, 50)
	for i := range b {
		b[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, stats, err := GMRESContext(ctx, a, b, nil, nil, Options{Tol: 1e-12})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if x == nil {
		t.Error("no partial iterate returned")
	}
	if stats.Converged {
		t.Error("cancelled solve reported convergence")
	}
}

func TestGMRESContextCancelAbortsWithinOneRestartCycle(t *testing.T) {
	// A 3D Laplacian large enough that an unpreconditioned GMRESContext(context.Background(), 5)
	// needs many restart cycles at a tight tolerance.
	a := laplacian3D(10, 10, 10)
	n := a.N
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	const restart = 5
	opts := Options{Tol: 1e-10, MaxIter: 10000, Restart: restart}

	// Reference: how many iterations the uncancelled solve takes.
	_, ref, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations <= 3*restart {
		t.Skipf("reference solve converged in %d iterations; too easy to observe cancellation", ref.Iterations)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel mid-way through the first restart cycle (the initial
	// residual costs one apply, each inner iteration one more).
	pc := &cancellingPC{inner: IdentityPC{}, after: restart, cancel: cancel}
	_, stats, err := GMRESContext(ctx, a, b, nil, pc, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abort must land at the next restart boundary: at most the
	// remainder of the interrupted cycle plus none of the next one.
	if stats.Iterations > 2*restart {
		t.Errorf("solver ran %d iterations after cancellation; want <= %d (one restart cycle)",
			stats.Iterations, 2*restart)
	}
}

func TestCGContextPreCancelled(t *testing.T) {
	a := laplacian1D(50)
	b := make([]float64, 50)
	for i := range b {
		b[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := CGContext(ctx, a, b, nil, nil, Options{Tol: 1e-12})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Converged {
		t.Error("cancelled solve reported convergence")
	}
}
