package fem

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/volume"
)

// surfaceBC constrains every surface node of the mesh to disp(p).
func surfaceBC(t *testing.T, m *mesh.Mesh, disp func(geom.Vec3) geom.Vec3) map[int32]geom.Vec3 {
	t.Helper()
	surf, err := m.ExtractSurface(func(volume.Label) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	bc := make(map[int32]geom.Vec3, len(surf.NodeID))
	for v, node := range surf.NodeID {
		bc[node] = disp(surf.Verts[v])
	}
	return bc
}

// TestPatchDirichletMatchesFullReapply is the cache-invalidation
// correctness test: randomized Dirichlet deltas solved through the
// incremental path (RHS patch + cached preconditioner + warm start)
// must land on the same displacement field as a from-scratch assembly.
// A stale preconditioner or un-patched RHS entry would surface as a
// solution mismatch.
func TestPatchDirichletMatchesFullReapply(t *testing.T) {
	const n, cs, ranks = 6, 2, 3
	rng := rand.New(rand.NewSource(42))
	sys, m := cubeSystem(t, n, cs, ranks)
	opts := solver.Options{Tol: 1e-10, MaxIter: 3000, Restart: 50}

	base := func(p geom.Vec3) geom.Vec3 {
		return geom.V(0.02*p.X, -0.01*p.Y, 0.015*p.Z)
	}
	bc := surfaceBC(t, m, base)
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	res, err := sys.SolveContext(context.Background(), opts)
	if err != nil || !res.Stats.Converged {
		t.Fatalf("baseline solve: err=%v stats=%v", err, res.Stats)
	}
	if res.PCCacheHit {
		t.Fatal("first solve reported a preconditioner cache hit")
	}

	for trial := 0; trial < 5; trial++ {
		// Random per-node perturbation of every boundary displacement.
		next := make(map[int32]geom.Vec3, len(bc))
		for node, d := range bc {
			next[node] = d.Add(geom.V(
				0.05*rng.NormFloat64(), 0.05*rng.NormFloat64(), 0.05*rng.NormFloat64()))
		}
		bc = next

		changed, err := sys.PatchDirichlet(context.Background(), bc)
		if err != nil {
			t.Fatalf("trial %d: patch: %v", trial, err)
		}
		if changed == 0 {
			t.Fatalf("trial %d: random deltas changed no DOFs", trial)
		}
		inc, err := sys.SolveWarmContext(context.Background(), res.U, opts)
		if err != nil || !inc.Stats.Converged {
			t.Fatalf("trial %d: incremental solve: err=%v stats=%v", trial, err, inc.Stats)
		}
		if !inc.PCCacheHit {
			t.Fatalf("trial %d: matrix unchanged but preconditioner re-factorized", trial)
		}
		if !inc.Stats.WarmStarted {
			t.Fatalf("trial %d: incremental solve not warm-started", trial)
		}

		// Reference: a cold system assembled and constrained from scratch.
		ref, _ := cubeSystem(t, n, cs, ranks)
		if err := ref.ApplyDirichlet(bc); err != nil {
			t.Fatal(err)
		}
		cold, err := ref.SolveContext(context.Background(), opts)
		if err != nil || !cold.Stats.Converged {
			t.Fatalf("trial %d: reference solve: err=%v stats=%v", trial, err, cold.Stats)
		}
		for node := range m.Nodes {
			if d := inc.NodeU[node].Sub(cold.NodeU[node]).MaxAbs(); d > 1e-7 {
				t.Fatalf("trial %d: node %d diverged by %g from cold solve", trial, node, d)
			}
		}
		res = inc
	}
}

// TestPatchDirichletRejectsChangedSet pins the fallback contract: any
// change to the constrained node set must be refused with
// ErrBoundarySetChanged, never silently mis-patched.
func TestPatchDirichletRejectsChangedSet(t *testing.T) {
	sys, m := cubeSystem(t, 5, 2, 2)
	ctx := context.Background()
	if _, err := sys.PatchDirichlet(ctx, map[int32]geom.Vec3{0: {}}); !errors.Is(err, ErrBoundarySetChanged) {
		t.Fatalf("patch before ApplyDirichlet: err=%v, want ErrBoundarySetChanged", err)
	}
	bc := surfaceBC(t, m, func(geom.Vec3) geom.Vec3 { return geom.V(0.1, 0, 0) })
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}

	// Subset: one node removed.
	smaller := make(map[int32]geom.Vec3, len(bc))
	for node, d := range bc {
		smaller[node] = d
	}
	for node := range smaller {
		delete(smaller, node)
		break
	}
	if _, err := sys.PatchDirichlet(ctx, smaller); !errors.Is(err, ErrBoundarySetChanged) {
		t.Fatalf("subset accepted: err=%v", err)
	}

	// Same cardinality, different membership: swap one constrained node
	// for an interior one.
	swapped := make(map[int32]geom.Vec3, len(bc))
	for node, d := range bc {
		swapped[node] = d
	}
	var interior int32 = -1
	for n := 0; n < m.NumNodes(); n++ {
		if _, ok := bc[int32(n)]; !ok {
			interior = int32(n)
			break
		}
	}
	if interior < 0 {
		t.Skip("mesh has no interior node")
	}
	for node := range swapped {
		delete(swapped, node)
		break
	}
	swapped[interior] = geom.V(1, 1, 1)
	if _, err := sys.PatchDirichlet(ctx, swapped); !errors.Is(err, ErrBoundarySetChanged) {
		t.Fatalf("swapped membership accepted: err=%v", err)
	}

	// Identical values: a valid no-op patch.
	changed, err := sys.PatchDirichlet(ctx, bc)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Fatalf("identical values changed %d DOFs", changed)
	}
}

// TestPCCacheMissesAfterReapply pins who factorizes: the first solve on
// an Operator, once — every later solve of every System on it reports
// PCCacheHit, whatever partition its options name — and a full
// re-elimination, which builds a new Operator, cannot reuse stale
// factors.
func TestPCCacheMissesAfterReapply(t *testing.T) {
	g := volume.NewGrid(9, 9, 9, 1)
	l := volume.NewLabels(g)
	for i := range l.Data {
		l.Data[i] = volume.LabelBrain
	}
	m, err := mesh.FromLabels(l, mesh.Options{CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := solver.Options{Tol: 1e-9, MaxIter: 2000, Restart: 40}
	bc := surfaceBC(t, m, func(geom.Vec3) geom.Vec3 { return geom.V(0.2, -0.1, 0) })
	nodes := make([]int32, 0, len(bc))
	for node := range bc {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)

	assembled, err := AssembleContext(context.Background(), m, HomogeneousBrain(), par.Even(m.NumNodes(), 2))
	if err != nil {
		t.Fatal(err)
	}
	var first *SolveResult
	for _, fresh := range []bool{true, false} { // an eliminated Operator, then its re-elimination
		op, err := assembled.Eliminate(nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range []solver.Options{opts, opts, {Tol: opts.Tol, MaxIter: opts.MaxIter, Restart: opts.Restart,
			Partition: par.Partition{N: 7, P: 3, Starts: []int{0, 2, 4, 7}}}} {
			sys := op.NewSystem(m) // every solve on a fork of its own
			if _, err := sys.PatchDirichlet(context.Background(), bc); err != nil {
				t.Fatal(err)
			}
			res, err := sys.SolveContext(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.PCCacheHit != (i > 0) || !res.Stats.Converged || res.Stats.Iterations < 2 {
				t.Errorf("fresh=%v solve %d: PCCacheHit = %v, want only the first solve on an Operator to factorize",
					fresh, i, res.PCCacheHit)
			}
			if first == nil {
				first = res
			}
			if res.Stats.Iterations != first.Stats.Iterations || !slices.Equal(res.U, first.U) {
				t.Errorf("fresh=%v solve %d: %d iterations against the first solve's %d, or another solution",
					fresh, i, res.Stats.Iterations, first.Stats.Iterations)
			}
		}
	}
}

// TestInterpTableMatchesDisplacementField pins the resampling cache
// contract: applying the prebuilt voxel→element table must reproduce
// DisplacementField bit for bit, on every voxel.
func TestInterpTableMatchesDisplacementField(t *testing.T) {
	const n = 6
	sys, m := cubeSystem(t, n, 2, 2)
	bc := surfaceBC(t, m, func(p geom.Vec3) geom.Vec3 {
		return geom.V(0.03*p.Y, -0.02*p.Z, 0.01*p.X)
	})
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	res, err := sys.SolveContext(context.Background(), solver.Options{Tol: 1e-8, MaxIter: 2000, Restart: 40})
	if err != nil || !res.Stats.Converged {
		t.Fatalf("solve: err=%v stats=%v", err, res.Stats)
	}

	g := volume.NewGrid(n, n, n, 1)
	want := sys.DisplacementField(res.NodeU, g)
	tab := sys.BuildInterpTable(g)
	if tab.Covered() == 0 {
		t.Fatal("interpolation table covers no voxels")
	}
	// One entry per covered voxel, however many elements share it.
	seen := make(map[int32]bool)
	for _, v := range tab.vox {
		if seen[v] {
			t.Fatalf("voxel %d has more than one table entry", v)
		}
		seen[v] = true
	}
	if !tab.Grid().SameShape(g) {
		t.Fatalf("table grid = %v, want %v", tab.Grid(), g)
	}
	got := tab.Apply(res.NodeU)
	for idx := range want.DX {
		if got.DX[idx] != want.DX[idx] || got.DY[idx] != want.DY[idx] || got.DZ[idx] != want.DZ[idx] {
			t.Fatalf("voxel %d: table (%g,%g,%g) != direct (%g,%g,%g)", idx,
				got.DX[idx], got.DY[idx], got.DZ[idx],
				want.DX[idx], want.DY[idx], want.DZ[idx])
		}
	}

	// A second solution through the same table must track the new field,
	// not replay the first (the table caches geometry, not data).
	scaled := make([]geom.Vec3, len(res.NodeU))
	for i, u := range res.NodeU {
		scaled[i] = u.Scale(2)
	}
	want2 := sys.DisplacementField(scaled, g)
	got2 := tab.Apply(scaled)
	for idx := range want2.DX {
		if got2.DX[idx] != want2.DX[idx] {
			t.Fatalf("voxel %d after rescale: table %g != direct %g", idx, got2.DX[idx], want2.DX[idx])
		}
	}
}

func TestSolveWarmContextRejectsBadSeed(t *testing.T) {
	sys, m := cubeSystem(t, 4, 2, 1)
	bc := surfaceBC(t, m, func(geom.Vec3) geom.Vec3 { return geom.V(0.1, 0, 0) })
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	short := make([]float64, sys.NumDOF-1)
	if _, err := sys.SolveWarmContext(context.Background(), short, solver.Options{}); err == nil {
		t.Fatal("short warm-start seed accepted")
	}
}
