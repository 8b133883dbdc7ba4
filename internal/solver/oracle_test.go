package solver_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/volume"
)

// oracleGMRES is left-preconditioned restarted GMRESContext(context.Background(), m) as the solver
// ran it before PR 18: one-accumulator inner products, and a modified
// Gram-Schmidt that takes each coefficient with a dot and then
// subtracts the projection in a separate pass, all serial. Same
// convergence test and restart policy as solver.GMRESContext; it
// returns the solution and the iteration count. With basis32 it is the
// mixed-precision cycle stated the slow way: the matrix values and each
// Krylov basis vector are rounded to float32 where they are stored, and
// everything else — inner products, Hessenberg column, rotations, the
// triangular solve, the iterate — is float64.
func oracleGMRES(a *sparse.CSR, b, x0 []float64, m solver.Preconditioner, restart, maxIter int, tol float64, basis32 bool) ([]float64, int) {
	n := a.N
	store := func(v float64) float64 { return v }
	if basis32 {
		store = func(v float64) float64 { return float64(float32(v)) }
		rounded := *a
		rounded.Val = make([]float64, len(a.Val))
		for i, v := range a.Val {
			rounded.Val[i] = store(v)
		}
		a = &rounded
	}
	dot := func(u, v []float64) float64 {
		s := 0.0
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	norm2 := func(u []float64) float64 { return math.Sqrt(dot(u, u)) }
	vec := func() []float64 { return make([]float64, n) }
	x, r, z, w, zw := vec(), vec(), vec(), vec(), vec()
	copy(x, x0)
	v := make([][]float64, restart+1)
	h := make([][]float64, restart+1)
	for i := range v {
		v[i], h[i] = vec(), make([]float64, restart)
	}
	cs, sn, y := make([]float64, restart), make([]float64, restart), make([]float64, restart)
	g := make([]float64, restart+1)

	m.Apply(b, z)
	beta0 := norm2(z)
	iters := 0
	for iters < maxIter {
		a.MulVec(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		m.Apply(r, z)
		beta := norm2(z)
		if beta/beta0 <= tol {
			break
		}
		for i := range z {
			v[0][i] = store(z[i] * (1 / beta))
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		k := 0
		for ; k < restart && iters < maxIter; k++ {
			iters++
			a.MulVec(v[k], w)
			m.Apply(w, zw)
			for i := 0; i <= k; i++ {
				h[i][k] = dot(zw, v[i])
				for j := range zw {
					zw[j] -= h[i][k] * v[i][j]
				}
			}
			h[k+1][k] = norm2(zw)
			for j := range zw {
				v[k+1][j] = store(zw[j] * (1 / h[k+1][k]))
			}
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			denom := math.Hypot(h[k][k], h[k+1][k])
			cs[k], sn[k] = h[k][k]/denom, h[k+1][k]/denom
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			if math.Abs(g[k+1])/beta0 <= tol {
				k++
				break
			}
		}
		for i := k - 1; i >= 0; i-- {
			y[i] = g[i]
			for j := i + 1; j < k; j++ {
				y[i] -= h[i][j] * y[j]
			}
			y[i] /= h[i][i]
		}
		for i := 0; i < k; i++ {
			for j := range x {
				x[j] += y[i] * v[i][j]
			}
		}
	}
	return x, iters
}

// relDiff is ||got - want|| / ||want|| in the 2-norm.
func relDiff(got, want []float64) float64 {
	diff, ref := 0.0, 0.0
	for i := range want {
		diff += (got[i] - want[i]) * (got[i] - want[i])
		ref += want[i] * want[i]
	}
	return math.Sqrt(diff / ref)
}

// phantomElasticity assembles the linear-elastic system of the phantom
// brain at the given grid size, its surface nodes displaced by a smooth
// field, and returns the eliminated system with its DOF partition.
func phantomElasticity(t *testing.T, size, ranks int) (*fem.System, par.Partition) {
	t.Helper()
	brain := func(lab volume.Label) bool {
		return lab == volume.LabelBrain || lab == volume.LabelVentricle || lab == volume.LabelTumor || lab == volume.LabelFalx
	}
	c := phantom.Generate(phantom.DefaultParams(size))
	m, err := mesh.FromLabels(c.PreopLabels, mesh.Options{CellSize: 1, Include: brain})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fem.AssembleContext(context.Background(), m, fem.HeterogeneousBrain(), par.Even(m.NumNodes(), ranks))
	if err != nil {
		t.Fatal(err)
	}
	surf, err := m.ExtractSurface(brain)
	if err != nil {
		t.Fatal(err)
	}
	bc := make(map[int32]geom.Vec3, len(surf.NodeID))
	for i, node := range surf.NodeID {
		p := surf.Verts[i]
		bc[node] = geom.V(0.3*math.Sin(0.2*p.Y), 1.5*math.Exp(-0.01*p.X*p.X), 0.2*math.Cos(0.3*p.Z))
	}
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	return sys, sys.DOFPartition()
}

// TestBlockFactorsOfFEMOperatorsMatchOracle: on the eliminated phantom
// operator, the factor built from the operator's rows has the
// copy-and-merge factor's bits, block by block, for 1, 2, 3 and 7
// ranks. (The mesh and material variety of the operators is fem's
// exactness suite; the factor reads only the matrix.)
func TestBlockFactorsOfFEMOperatorsMatchOracle(t *testing.T) {
	size := 20
	if testing.Short() {
		size = 28
	}
	for _, ranks := range []int{1, 2, 3, 7} {
		sys, pt := phantomElasticity(t, size, ranks)
		if err := solver.FactorsMatchOracle(sys.K, pt); err != nil {
			t.Errorf("%d ranks: %v", ranks, err)
		}
	}
}

// TestGMRESMatchesClassicalGramSchmidt bounds what the fused,
// multi-lane, rank-parallel Gram-Schmidt may change: against the
// classical serial cycle the solver takes the same number of iterations
// and lands within 1e-12 of its solution (relative, 2-norm), cold and
// warm-started, on TestGMRESSolves3DLaplacian's system and on a phantom
// elasticity system with the production preconditioner.
func TestGMRESMatchesClassicalGramSchmidt(t *testing.T) {
	lap := solver.Laplacian3D(8, 8, 8)
	size := 28 // 21,003 equations, eleven chunks of the reduction
	if testing.Short() {
		size = 20 // 8,295 equations: the race detector runs this test too
	}
	sys, part := phantomElasticity(t, size, 2)
	pc, err := solver.NewBlockJacobiILU0(sys.K, part)
	if err != nil {
		t.Fatal(err)
	}
	// A warm start's seed: the solution of a perturbed right-hand side.
	perturbed := func(b []float64) []float64 {
		out := make([]float64, len(b))
		for i, v := range b {
			out[i] = v * (1 + 0.05*math.Sin(float64(i)))
		}
		return out
	}
	cases := []struct {
		name string
		a    *sparse.CSR
		b    []float64
		m    solver.Preconditioner
		part par.Partition
		tol  float64
	}{
		{"laplacian", lap, solver.RandomRHS(lap.N, 2), solver.IdentityPC{}, par.Partition{}, 1e-9},
		{"laplacian-3-ranks", lap, solver.RandomRHS(lap.N, 2), solver.NewJacobi(lap), par.Even(lap.N, 3), 1e-9},
		{"phantom-elasticity", sys.K, sys.F, pc, part, 1e-8},
	}
	for _, c := range cases {
		opts := solver.DefaultOptions()
		opts.Tol, opts.Partition = c.tol, c.part
		seed, _, err := solver.GMRESContext(context.Background(), c.a, perturbed(c.b), nil, c.m, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, x0 := range [][]float64{nil, seed} {
			name, solve := c.name+"/cold", solver.GMRESContext
			if x0 != nil {
				name, solve = c.name+"/warm", solver.GMRESWarmContext
			}
			got, st, err := solve(context.Background(), c.a, c.b, x0, c.m, opts)
			if err != nil || !st.Converged {
				t.Fatalf("%s: err=%v stats=%v", name, err, st)
			}
			want, iters := oracleGMRES(c.a, c.b, x0, c.m, opts.Restart, opts.MaxIter, opts.Tol, false)
			if st.Iterations != iters {
				t.Errorf("%s: %d iterations, classical cycle %d", name, st.Iterations, iters)
			}
			if rel := relDiff(got, want); rel > 1e-12 {
				t.Errorf("%s: differs from the classical cycle by %.3g (relative), limit 1e-12", name, rel)
			} else {
				t.Logf("%s: %d equations, %d iterations, relative difference %.3g", name, c.a.N, iters, rel)
			}
		}
	}
}

// TestGMRESMixedPrecisionMatchesClassicalCycle pins which values the
// float32-storage mode may round: only the matrix entries and the
// stored Krylov basis. Against the classical cycle with exactly those
// two roundings it takes the same iterations and lands within 1e-10
// (observed 1e-15 to 1e-12: the float32 basis amplifies the reduction
// order's last-bit differences); a Hessenberg entry, a Givens rotation
// or a running sum narrowed to float32 moves the iterate by 1e-8 or
// more and fails here. The demotion itself must leave the caller's
// float64 matrix alone.
func TestGMRESMixedPrecisionMatchesClassicalCycle(t *testing.T) {
	lap := solver.Laplacian3D(8, 8, 8)
	sys, part := phantomElasticity(t, 20, 2)
	pc, err := solver.NewBlockJacobiILU0(sys.K, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		b    []float64
		m    solver.Preconditioner
		part par.Partition
		tol  float64
	}{
		{"laplacian", lap, solver.RandomRHS(lap.N, 2), solver.NewJacobi(lap), par.Partition{}, 1e-9},
		{"phantom-elasticity", sys.K, sys.F, pc, part, 1e-8},
	} {
		opts := solver.DefaultOptions()
		opts.Tol, opts.Partition, opts.StoragePrecision = c.tol, c.part, solver.PrecisionFloat32
		val := slices.Clone(c.a.Val)
		got, st, err := solver.GMRESContext(context.Background(), c.a, c.b, nil, c.m, opts)
		if err != nil || !st.Converged {
			t.Fatalf("%s: err=%v stats=%v", c.name, err, st)
		}
		// The demotion copies: the caller's float64 matrix keeps its bits.
		if !slices.Equal(val, c.a.Val) {
			t.Errorf("%s: the float32-storage solve changed the caller's matrix values", c.name)
		}
		want, iters := oracleGMRES(c.a, c.b, nil, c.m, opts.Restart, opts.MaxIter, opts.Tol, true)
		if st.Iterations != iters {
			t.Errorf("%s: %d iterations, classical cycle %d", c.name, st.Iterations, iters)
		}
		if rel := relDiff(got, want); rel > 1e-10 {
			t.Errorf("%s: differs from the classical cycle by %.3g (relative), limit 1e-10", c.name, rel)
		} else {
			t.Logf("%s: %d equations, %d iterations, relative difference %.3g", c.name, c.a.N, iters, rel)
		}
	}
}

// TestBILU0NeedsNoMoreIterationsThanPointILU0: on the phantom
// elasticity system, GMRES preconditioned by the node-block factor
// converges in no more iterations than with a point ILU(0) of the same
// blocks, at one rank and at two: 30 against 32 and 41 against 42 at
// size 28, 20 against 21 and 31 against 32 at size 20. It is a
// tendency, not a theorem: on the smallest grids (14 and 16, under
// 5,000 equations) the one-rank solve takes one iteration more with the
// block factor.
func TestBILU0NeedsNoMoreIterationsThanPointILU0(t *testing.T) {
	size := 28
	if testing.Short() {
		size = 20
	}
	for _, ranks := range []int{1, 2} {
		sys, pt := phantomElasticity(t, size, ranks)
		blk, err := solver.NewBlockJacobiILU0(sys.K, pt)
		if err != nil {
			t.Fatal(err)
		}
		pnt, err := solver.PointILU0(sys.K, pt)
		if err != nil {
			t.Fatal(err)
		}
		opts := solver.DefaultOptions()
		opts.Partition = pt
		var iters [2]int
		for i, pc := range []solver.Preconditioner{blk, pnt} {
			_, st, err := solver.GMRESContext(context.Background(), sys.K, sys.F, nil, pc, opts)
			if err != nil || !st.Converged {
				t.Fatalf("%d ranks, %s: err=%v stats=%v", ranks, pc.Name(), err, st)
			}
			iters[i] = st.Iterations
		}
		if iters[0] > iters[1] {
			t.Errorf("%d ranks: BILU(0) took %d iterations, point ILU(0) %d", ranks, iters[0], iters[1])
		} else {
			t.Logf("%d equations, %d ranks: BILU(0) %d iterations, point ILU(0) %d", sys.NumDOF, ranks, iters[0], iters[1])
		}
	}
}
