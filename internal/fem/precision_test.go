package fem

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/solver"
	"repro/internal/volume"
)

// phantomSystem assembles the FEM system of the seed phantom's brain
// mesh with a gravity-like load and the bottom nodes clamped — the
// standard brain-shift load case the precision-parity gates run on.
func phantomSystem(t *testing.T, n int) (*System, *mesh.Mesh) {
	t.Helper()
	p := phantom.DefaultParams(n)
	g := volume.NewGrid(n, n, n, p.Spacing)
	labels := phantom.GenerateLabels(g, p)
	m, err := mesh.FromLabels(labels, mesh.Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := AssembleContext(context.Background(), m, HeterogeneousBrain(), par.Even(m.NumNodes(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddBodyForce(geom.V(0, 0, -40), nil); err != nil {
		t.Fatal(err)
	}
	minZ := math.Inf(1)
	for _, pt := range m.Nodes {
		if pt.Z < minZ {
			minZ = pt.Z
		}
	}
	bc := map[int32]geom.Vec3{}
	for i, pt := range m.Nodes {
		if pt.Z < minZ+2 {
			bc[int32(i)] = geom.Vec3{}
		}
	}
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	return sys, m
}

// TestGMRESMixedPrecisionParity is the convergence gate for the
// float32-storage GMRES mode: on the seed phantom's stiffness system
// the mixed-precision solve must converge to the same tolerance with
// an iteration count within 10% of the float64 baseline, and the two
// displacement fields must agree to well under the 0.01 mm divergence
// budget the registration pipeline allows.
func TestGMRESMixedPrecisionParity(t *testing.T) {
	sys, _ := phantomSystem(t, 24)
	opts := solver.Options{Tol: 1e-6, MaxIter: 4000, Restart: 30}

	res64, err := sys.SolveContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res64.Stats.Converged {
		t.Fatalf("float64 solve did not converge: %v", res64.Stats)
	}

	opts.StoragePrecision = solver.PrecisionFloat32
	res32, err := sys.SolveContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res32.Stats.Converged {
		t.Fatalf("mixed-precision solve did not converge: %v", res32.Stats)
	}

	i64, i32 := res64.Stats.Iterations, res32.Stats.Iterations
	if delta := math.Abs(float64(i32-i64)) / float64(i64); delta > 0.10 {
		t.Errorf("iteration-count delta %.1f%% exceeds 10%%: float64=%d mixed=%d",
			100*delta, i64, i32)
	}
	if res32.Stats.StepRMS > opts.Tol {
		t.Errorf("mixed-precision final step %g mm above tolerance %g",
			res32.Stats.StepRMS, opts.Tol)
	}

	maxDiffMM := 0.0
	for i := range res64.NodeU {
		if d := res64.NodeU[i].Sub(res32.NodeU[i]).Norm(); d > maxDiffMM {
			maxDiffMM = d
		}
	}
	if maxDiffMM > 0.01 {
		t.Errorf("displacement divergence %.4g mm exceeds 0.01 mm budget", maxDiffMM)
	}
	t.Logf("iterations: float64=%d mixed=%d; divergence=%.3g mm", i64, i32, maxDiffMM)
}

// TestGMRESMixedPrecisionHistory checks the mixed path under the same
// telemetry options as the baseline: history recording, warm start,
// and parallel matvec all compose with StoragePrecision.
func TestGMRESMixedPrecisionHistory(t *testing.T) {
	sys, _ := phantomSystem(t, 16)
	opts := solver.Options{Tol: 1e-6, MaxIter: 2000, Restart: 25, RecordHistory: true,
		StoragePrecision: solver.PrecisionFloat32, Partition: sys.DOFPartition()}
	res, err := sys.SolveContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %v", res.Stats)
	}
	if len(res.Stats.History) != res.Stats.Iterations {
		t.Errorf("history length %d != iterations %d", len(res.Stats.History), res.Stats.Iterations)
	}
	if last := res.Stats.History[len(res.Stats.History)-1]; last != res.Stats.FinalResRel {
		t.Errorf("last history entry %g, reported residual %g", last, res.Stats.FinalResRel)
	}
	if res.Stats.StepRMS > opts.Tol {
		t.Errorf("final step %g mm above tolerance %g", res.Stats.StepRMS, opts.Tol)
	}
}
