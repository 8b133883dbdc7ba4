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

// oracleGMRES is left-preconditioned restarted GMRES as the solver ran
// it before its fused Gram-Schmidt: one-accumulator inner products,
// and a modified Gram-Schmidt that takes each coefficient with a dot
// and then subtracts the projection in a separate pass, all serial. It forms
// every iterate x_k densely and stops on the stopping rule stated over
// those vectors: ‖x_k − x_{k−4}‖₂ ≤ tol·√n, the window clipped at x_0
// and, across a restart, bounded by the triangle inequality through
// each cycle's starting iterate; with the same residual guards (below
// its cycle's entry residual, or at the residual floor) and the same
// happy breakdown. It returns the solution, the iteration count and
// the last step over √n. With basis32 it is the mixed-precision cycle
// stated the slow way: the matrix values and each Krylov basis vector
// are rounded to float32 where they are stored, and everything else —
// inner products, Hessenberg column, rotations, the triangular solve,
// the iterate — is float64.
func oracleGMRES(a *sparse.CSR, b, x0 []float64, m solver.Preconditioner, restart, maxIter int, tol float64, basis32 bool) ([]float64, int, float64) {
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
	dist := func(u, v []float64) float64 {
		s := 0.0
		for i := range u {
			s += (u[i] - v[i]) * (u[i] - v[i])
		}
		return math.Sqrt(s)
	}
	vec := func() []float64 { return make([]float64, n) }
	x, r, z, w, zw := vec(), vec(), vec(), vec(), vec()
	if x0 != nil {
		copy(x, x0)
	}
	v := make([][]float64, restart+1)
	h := make([][]float64, restart+1)
	for i := range v {
		v[i], h[i] = vec(), make([]float64, restart)
	}
	cs, sn, y := make([]float64, restart), make([]float64, restart), make([]float64, restart)
	g := make([]float64, restart+1)

	// iterates[j] is x_j; a cycle starts at iterate j when starts[j].
	iterates := [][]float64{slices.Clone(x)}
	starts := map[int]bool{}
	step := func(j int) float64 {
		from := max(j-solver.StepDelay, 0)
		sum, prev := 0.0, from
		for i := from + 1; i < j; i++ {
			if starts[i] {
				sum += dist(iterates[i], iterates[prev])
				prev = i
			}
		}
		return sum + dist(iterates[j], iterates[prev])
	}
	limit := tol * math.Sqrt(float64(n))

	m.Apply(b, z)
	beta0 := norm2(z)
	iters, last := 0, 0.0
	for iters < maxIter {
		a.MulVec(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		m.Apply(r, z)
		beta := norm2(z)
		if beta/beta0 <= solver.ResidualFloor {
			break
		}
		starts[iters] = true
		for i := range z {
			v[0][i] = store(z[i] * (1 / beta))
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		done := false
		for k := 0; k < restart && iters < maxIter && !done; k++ {
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
			breakdown := !(h[k+1][k] > 1e-300)
			for j := range zw {
				v[k+1][j] = 0
				if !breakdown {
					v[k+1][j] = store(zw[j] * (1 / h[k+1][k]))
				}
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
			// The iterate x_{k+1} of this cycle, densely.
			for i := k; i >= 0; i-- {
				y[i] = g[i]
				for j := i + 1; j <= k; j++ {
					y[i] -= h[i][j] * y[j]
				}
				y[i] /= h[i][i]
			}
			xk := slices.Clone(x)
			for i := 0; i <= k; i++ {
				for j := range xk {
					xk[j] += y[i] * v[i][j]
				}
			}
			iterates = append(iterates, xk)
			last = step(iters)
			res := math.Abs(g[k+1])
			done = res <= solver.ResidualFloor*beta0 || breakdown || last <= limit && res < beta
		}
		x = iterates[iters]
		if done {
			break
		}
	}
	return x, iters, last / math.Sqrt(float64(n))
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

// oracleCase is one system the production kernels are held to
// oracleGMRES on.
type oracleCase struct {
	name    string
	a       *sparse.CSR
	b       []float64
	m       solver.Preconditioner
	part    par.Partition
	tol     float64
	restart int
}

// checkAgainstOracle solves c cold, warm from the solution of a
// perturbed right-hand side, and warm from a seed already within c.tol
// of its solution, with the production solver and with oracleGMRES: the
// two must stop at the same iteration (the already-converged seed after
// one) and land within limit of each other (relative, 2-norm). Their
// steps agree within stepLimit (relative): the oracle's is a norm of
// dense vectors, the solver's a norm of coefficients, equal only as far
// as the stored basis is orthonormal.
func checkAgainstOracle(t *testing.T, c oracleCase, precision solver.Precision, limit, stepLimit float64) {
	t.Helper()
	opts := solver.DefaultOptions()
	opts.Tol, opts.Partition, opts.Restart, opts.StoragePrecision = c.tol, c.part, c.restart, precision
	perturbed := make([]float64, len(c.b))
	for i, v := range c.b {
		perturbed[i] = v * (1 + 0.05*math.Sin(float64(i)))
	}
	seed, _, err := solver.GMRESContext(context.Background(), c.a, perturbed, nil, c.m, opts)
	if err != nil {
		t.Fatal(err)
	}
	tight := opts
	tight.Tol = c.tol / 100
	converged, _, err := solver.GMRESContext(context.Background(), c.a, c.b, nil, c.m, tight)
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []struct {
		name string
		x0   []float64
	}{{"cold", nil}, {"warm", seed}, {"converged", converged}} {
		name, solve := c.name+"/"+start.name, solver.GMRESContext
		if start.x0 != nil {
			solve = solver.GMRESWarmContext
		}
		got, st, err := solve(context.Background(), c.a, c.b, start.x0, c.m, opts)
		if err != nil || !st.Converged {
			t.Fatalf("%s: err=%v stats=%v", name, err, st)
		}
		want, iters, step := oracleGMRES(c.a, c.b, start.x0, c.m, opts.Restart, opts.MaxIter, opts.Tol, precision == solver.PrecisionFloat32)
		if st.Iterations != iters {
			t.Errorf("%s: %d iterations, dense iterates %d", name, st.Iterations, iters)
		}
		if start.name == "converged" && st.Iterations != 1 {
			t.Errorf("%s: a seed within Tol took %d iterations, want 1", name, st.Iterations)
		}
		if rel := math.Abs(st.StepRMS-step) / step; !(rel <= stepLimit) {
			t.Errorf("%s: step %.6g from coefficients, %.6g from dense iterates", name, st.StepRMS, step)
		}
		if rel := relDiff(got, want); rel > limit {
			t.Errorf("%s: differs from the classical cycle by %.3g (relative), limit %g", name, rel, limit)
		} else {
			t.Logf("%s: %d equations, %d iterations (cycle iteration %d), step %.3g, relative difference %.3g",
				name, c.a.N, iters, (iters-1)%opts.Restart+1, step, rel)
		}
	}
}

// TestGMRESMatchesClassicalGramSchmidt bounds what the fused,
// multi-lane, rank-parallel Gram-Schmidt and the coefficient-read
// stopping rule may change: against the classical serial cycle stopped
// on dense iterates the solver takes the same number of iterations and
// lands within 1e-12 of its solution (relative, 2-norm), cold and
// warm-started, on TestGMRESSolves3DLaplacian's system, on the same
// system restarted every five iterations (so the four-iterate window
// straddles restarts), and on a phantom elasticity system with the
// production preconditioner at the production Tol.
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
	rhs := solver.RandomRHS(lap.N, 2)
	for _, c := range []oracleCase{
		{"laplacian", lap, rhs, solver.IdentityPC{}, par.Partition{}, 1e-9, 30},
		{"laplacian-3-ranks", lap, rhs, solver.NewJacobi(lap), par.Even(lap.N, 3), 1e-9, 30},
		{"laplacian-restart-5", lap, rhs, solver.NewJacobi(lap), par.Partition{}, 1e-7, 5},
		{"phantom-elasticity", sys.K, sys.F, pc, part, solver.DefaultOptions().Tol, 30},
	} {
		checkAgainstOracle(t, c, solver.PrecisionFloat64, 1e-12, 1e-4)
	}
}

// TestGMRESMixedPrecisionMatchesClassicalCycle pins which values the
// float32-storage mode may round: only the matrix entries and the
// stored Krylov basis. Against the classical cycle with exactly those
// two roundings, stopped on dense iterates, it takes the same
// iterations and lands within 1e-10 (observed 1e-16 to 1e-13: the
// float32 basis amplifies the reduction order's last-bit differences);
// a Hessenberg entry, a Givens rotation or a running sum narrowed to
// float32 moves the iterate by 1e-8 or more and fails here. The
// demotion itself must leave the caller's float64 matrix alone.
func TestGMRESMixedPrecisionMatchesClassicalCycle(t *testing.T) {
	lap := solver.Laplacian3D(8, 8, 8)
	sys, part := phantomElasticity(t, 20, 2)
	pc, err := solver.NewBlockJacobiILU0(sys.K, part)
	if err != nil {
		t.Fatal(err)
	}
	rhs := solver.RandomRHS(lap.N, 2)
	for _, c := range []oracleCase{
		{"laplacian", lap, rhs, solver.NewJacobi(lap), par.Partition{}, 1e-7, 30},
		{"laplacian-restart-5", lap, rhs, solver.NewJacobi(lap), par.Partition{}, 1e-6, 5},
		{"phantom-elasticity", sys.K, sys.F, pc, part, solver.DefaultOptions().Tol, 30},
	} {
		val := slices.Clone(c.a.Val)
		checkAgainstOracle(t, c, solver.PrecisionFloat32, 1e-10, 1e-2)
		// The demotion copies: the caller's float64 matrix keeps its bits.
		if !slices.Equal(val, c.a.Val) {
			t.Errorf("%s: the float32-storage solve changed the caller's matrix values", c.name)
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
