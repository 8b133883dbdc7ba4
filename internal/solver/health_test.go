package solver

import (
	"context"
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
	_, st, err := GMRES(a, b, nil, nil, opts)
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
	_, st, err := GMRES(a, b, nil, nil, opts)
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

// TestGMRESStagnationDetected runs GMRES(1) on a circular-shift
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
	_, st, err := GMRES(a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Fatalf("GMRES(1) cannot converge on a length-%d shift cycle in %d iterations", n, opts.MaxIter)
	}
	if st.StagnatedCycles == 0 {
		t.Errorf("StagnatedCycles = 0 on a fully stagnant solve (final %g, entry %g)",
			st.FinalResRel, st.EntryResRel)
	}
}

// TestGMRESSolveEventEmitted checks the per-solve convergence event
// reaches the context's flight recorder with the health attributes.
func TestGMRESSolveEventEmitted(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	b := randomRHS(a.N, 17)
	rec := obs.NewFlightRecorder(32)
	ctx := obs.WithFlightRecorder(context.Background(), rec)
	opts := Options{Tol: 1e-8, MaxIter: 500, Restart: 10}
	_, st, err := GMRESContext(ctx, a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ev *obs.FlightRecord
	for _, r := range rec.Snapshot() {
		if r.Kind == "event" && r.Name == obs.EventSolverSolve.String() {
			cp := r
			ev = &cp
		}
	}
	if ev == nil {
		t.Fatalf("no %s event recorded; records: %d", obs.EventSolverSolve, rec.Len())
	}
	if got := ev.Attrs["iterations"]; got != float64(st.Iterations) && got != st.Iterations {
		t.Errorf("event iterations = %v, want %d", got, st.Iterations)
	}
	if got := ev.Attrs["converged"]; got != st.Converged {
		t.Errorf("event converged = %v, want %v", got, st.Converged)
	}
	if got := ev.Attrs["warm_started"]; got != false {
		t.Errorf("event warm_started = %v, want false", got)
	}
	if _, ok := ev.Attrs["final_rel_residual"]; !ok {
		t.Error("event missing final_rel_residual")
	}
	if _, ok := ev.Attrs["restarts"]; !ok {
		t.Error("event missing restarts")
	}
}

// TestGMRESWarmEventMarksWarmStart checks the warm entry point stamps
// the event and stats with the warm-start provenance.
func TestGMRESWarmEventMarksWarmStart(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	b := randomRHS(a.N, 19)
	opts := Options{Tol: 1e-9, MaxIter: 500, Restart: 20}
	x, _, err := GMRES(a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(32)
	ctx := obs.WithFlightRecorder(context.Background(), rec)
	_, st, err := GMRESWarmContext(ctx, a, b, x, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.WarmStarted {
		t.Error("Stats.WarmStarted = false from GMRESWarmContext")
	}
	if st.EntryResRel > 0.01 {
		t.Errorf("EntryResRel = %g seeding with the exact solution, want ~0", st.EntryResRel)
	}
	found := false
	for _, r := range rec.Snapshot() {
		if r.Kind == "event" && r.Name == obs.EventSolverSolve.String() && r.Attrs["warm_started"] == true {
			found = true
		}
	}
	if !found {
		t.Error("no solver.solve event with warm_started=true recorded")
	}
}
