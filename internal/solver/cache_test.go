package solver

import (
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
)

// testMatrix builds a small diagonally dominant CSR matrix.
func testMatrix(n int) *sparse.CSR {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

func TestPCCacheHitAndMiss(t *testing.T) {
	a := testMatrix(12)
	pt := par.Even(12, 3)
	var c PCCache

	pc1, hit, err := c.BlockJacobiILU0(a, pt)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request must miss")
	}
	pc2, hit, err := c.BlockJacobiILU0(a, pt)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("same matrix and partition must hit")
	}
	if pc1 != pc2 {
		t.Fatal("hit must return the cached preconditioner instance")
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 1)", h, m)
	}
}

func TestPCCacheMissOnNewMatrix(t *testing.T) {
	a := testMatrix(12)
	pt := par.Even(12, 2)
	var c PCCache
	if _, _, err := c.BlockJacobiILU0(a, pt); err != nil {
		t.Fatal(err)
	}
	// A re-assembled system is a new CSR instance, even with identical
	// values: the identity key must miss.
	a2 := testMatrix(12)
	if _, hit, err := c.BlockJacobiILU0(a2, pt); err != nil || hit {
		t.Fatalf("rebuilt matrix: hit=%v err=%v, want miss", hit, err)
	}
}

func TestPCCacheMissOnPartitionChange(t *testing.T) {
	a := testMatrix(12)
	var c PCCache
	if _, _, err := c.BlockJacobiILU0(a, par.Even(12, 2)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.BlockJacobiILU0(a, par.Even(12, 4)); err != nil || hit {
		t.Fatalf("changed partition: hit=%v err=%v, want miss", hit, err)
	}
}

func TestGMRESWarmContextSeedsIterate(t *testing.T) {
	n := 40
	a := testMatrix(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	opts := Options{Tol: 1e-10, MaxIter: 400, Restart: 20}
	cold, coldStats, err := GMRES(a, b, nil, nil, opts)
	if err != nil || !coldStats.Converged {
		t.Fatalf("cold solve: err=%v stats=%v", err, coldStats)
	}
	// Seeding with the solution itself must converge without iterating.
	x, stats, err := GMRESWarmContext(t.Context(), a, b, cold, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.WarmStarted {
		t.Fatal("warm solve not marked WarmStarted")
	}
	if !stats.Converged {
		t.Fatalf("warm solve did not converge: %v", stats)
	}
	if stats.Iterations >= coldStats.Iterations {
		t.Fatalf("warm iterations %d not below cold %d", stats.Iterations, coldStats.Iterations)
	}
	if stats.EntryResRel > 1e-9 {
		t.Fatalf("entry residual %g not near zero for an exact seed", stats.EntryResRel)
	}
	for i := range x {
		if d := x[i] - cold[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("warm solution drifted at %d: %g vs %g", i, x[i], cold[i])
		}
	}
	// A wrongly sized seed is an API error, not a silent cold start.
	if _, _, err := GMRESWarmContext(t.Context(), a, b, cold[:n-1], nil, opts); err == nil {
		t.Fatal("short seed accepted")
	}
}
