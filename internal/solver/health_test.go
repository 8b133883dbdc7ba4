package solver

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// TestGMRESRestartsCounted forces multiple restart cycles with a tiny
// Krylov subspace and checks the health counters see them.
func TestGMRESRestartsCounted(t *testing.T) {
	a := laplacian3D(8, 8, 8)
	b := randomRHS(a.N, 11)
	opts := Options{Tol: 1e-10, MaxIter: 2000, Restart: 5}
	_, st, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %v", st)
	}
	if st.Restarts == 0 {
		t.Errorf("Restarts = 0 with Restart=5 on a %d-dof system needing %d iterations",
			a.N, st.Iterations)
	}
	if st.Diverged {
		t.Error("a converging Laplacian solve must not be flagged diverged")
	}
}

func TestGMRESSingleCycleHasNoRestarts(t *testing.T) {
	a := laplacian1D(20)
	b := randomRHS(20, 3)
	opts := Options{Tol: 1e-10, MaxIter: 200, Restart: 60}
	_, st, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %v", st)
	}
	// Converging within the first Krylov cycle (and its confirming
	// zero-iteration pass) is not a restart.
	if st.Restarts != 0 {
		t.Errorf("Restarts = %d for a single-cycle solve, want 0", st.Restarts)
	}
}

// TestGMRESStagnationDetected runs GMRESContext(context.Background(), 1) on a circular-shift
// permutation matrix — the textbook case where restarted GMRES makes
// zero progress until the subspace spans the whole cycle — and checks
// the stagnation counter sees the flat-lined cycles.
func TestGMRESStagnationDetected(t *testing.T) {
	n := 16
	bld := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		bld.Add(i, (i+1)%n, 1)
	}
	a := bld.Build()
	b := make([]float64, n)
	b[0] = 1
	opts := Options{Tol: 1e-10, MaxIter: 8, Restart: 1}
	_, st, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Fatalf("GMRESContext(context.Background(), 1) cannot converge on a length-%d shift cycle in %d iterations", n, opts.MaxIter)
	}
	if st.StagnatedCycles == 0 {
		t.Errorf("StagnatedCycles = 0 on a fully stagnant solve (final %g, entry %g)",
			st.FinalResRel, st.EntryResRel)
	}
}

// TestGMRESStatsOnEnclosingSpan: a solve states its statistics once, as
// attributes of the span it runs under, with the values it returns —
// cold, warm, and on the early exits (a zero right-hand side, a context
// cancelled before the first cycle) alike.
func TestGMRESStatsOnEnclosingSpan(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	b := randomRHS(a.N, 17)
	opts := Options{Tol: 1e-8, MaxIter: 500, Restart: 10}
	x, _, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name  string
		ctx   context.Context
		solve func(ctx context.Context) (Stats, error)
	}{
		{"cold", context.Background(), func(ctx context.Context) (Stats, error) {
			_, st, err := GMRESContext(ctx, a, b, nil, nil, opts)
			return st, err
		}},
		{"warm", context.Background(), func(ctx context.Context) (Stats, error) {
			_, st, err := GMRESWarmContext(ctx, a, b, x, nil, opts)
			return st, err
		}},
		{"zero rhs", context.Background(), func(ctx context.Context) (Stats, error) {
			_, st, err := GMRESContext(ctx, a, make([]float64, a.N), nil, nil, opts)
			return st, err
		}},
		{"cancelled", cancelled, func(ctx context.Context) (Stats, error) {
			_, st, err := GMRESContext(ctx, a, b, nil, nil, opts)
			if err == nil {
				t.Error("cancelled solve returned no error")
			}
			return st, nil
		}},
	} {
		rec := obs.NewFlightRecorder(64)
		ctx, span := obs.StartSpan(obs.WithFlightRecorder(c.ctx, rec), obs.SpanFEMSolve)
		st, err := c.solve(ctx)
		span.End(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st.WarmStarted != (c.name == "warm") {
			t.Errorf("%s: Stats.WarmStarted = %v", c.name, st.WarmStarted)
		}
		var got map[string]any
		for _, r := range rec.Snapshot() {
			if r.Kind != "" {
				t.Errorf("%s: ring holds a %q record %q", c.name, r.Kind, r.Name)
			}
			if r.Name == obs.SpanFEMSolve.String() {
				got = r.Attrs
			}
		}
		want := map[string]any{
			"iterations": st.Iterations, "matvecs": st.MatVecs, "converged": st.Converged,
			"step_rms": st.StepRMS, "entry_rel_residual": st.EntryResRel, "final_rel_residual": st.FinalResRel,
			"restarts": st.Restarts, "stagnated_cycles": st.StagnatedCycles,
			"diverged": st.Diverged, "warm_started": st.WarmStarted,
		}
		if c.name == "cancelled" {
			want["final_rel_residual"] = "NaN"
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: enclosing span attrs\n got %v\nwant %v", c.name, got, want)
		}
	}
}

func TestGMRESWarmContextSeedsIterate(t *testing.T) {
	n := 40
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	opts := Options{Tol: 1e-10, MaxIter: 400, Restart: 20}
	cold, coldStats, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
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
