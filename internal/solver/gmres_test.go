package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
)

// laplacian1D builds the SPD tridiagonal matrix of the 1D Poisson
// problem: 2 on the diagonal, -1 off-diagonal.
func laplacian1D(n int) *sparse.CSR {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

// laplacian3D builds the SPD 7-point stencil matrix on an nx x ny x nz
// grid — a realistic stand-in for the FEM stiffness structure.
func laplacian3D(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	b := sparse.NewBuilder(n)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				c := idx(i, j, k)
				b.Add(c, c, 6)
				if i > 0 {
					b.Add(c, idx(i-1, j, k), -1)
				}
				if i < nx-1 {
					b.Add(c, idx(i+1, j, k), -1)
				}
				if j > 0 {
					b.Add(c, idx(i, j-1, k), -1)
				}
				if j < ny-1 {
					b.Add(c, idx(i, j+1, k), -1)
				}
				if k > 0 {
					b.Add(c, idx(i, j, k-1), -1)
				}
				if k < nz-1 {
					b.Add(c, idx(i, j, k+1), -1)
				}
			}
		}
	}
	return b.Build()
}

// vectorLaplacian3D is laplacian3D ⊗ I₃: three unknowns per grid node,
// each coupled to the same component at the node's neighbours — the
// 3-DOF-per-node layout of the elasticity operator the block factor is
// built for.
func vectorLaplacian3D(nx, ny, nz int) *sparse.CSR {
	s := laplacian3D(nx, ny, nz)
	b := sparse.NewBuilder(3 * s.N)
	for i := 0; i < s.N; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			for d := 0; d < 3; d++ {
				b.Add(3*i+d, 3*int(s.Col[p])+d, s.Val[p])
			}
		}
	}
	return b.Build()
}

func residual(a *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, a.N)
	a.MulVec(x, r)
	max := 0.0
	for i := range r {
		if d := math.Abs(b[i] - r[i]); d > max {
			max = d
		}
	}
	return max
}

func randomRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func TestGMRESSolvesTridiagonal(t *testing.T) {
	a := laplacian1D(50)
	b := randomRHS(50, 1)
	opts := DefaultOptions()
	opts.Tol = 1e-10
	x, st, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %v", st)
	}
	if r := residual(a, x, b); r > 1e-6 {
		t.Errorf("residual = %v", r)
	}
}

func TestGMRESSolves3DLaplacian(t *testing.T) {
	a := laplacian3D(8, 8, 8)
	b := randomRHS(a.N, 2)
	opts := DefaultOptions()
	opts.Tol = 1e-9
	x, st, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %v", st)
	}
	if r := residual(a, x, b); r > 1e-5 {
		t.Errorf("residual = %v", r)
	}
}

func TestGMRESWithPreconditioners(t *testing.T) {
	a := vectorLaplacian3D(7, 7, 7)
	b := randomRHS(a.N, 3)
	opts := DefaultOptions()
	opts.Tol = 1e-9

	baseline, stNone, err := GMRESContext(context.Background(), a, b, nil, IdentityPC{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []Preconditioner{
		NewJacobi(a),
		mustBlockJacobi(t, a, nodePartition(a.N, 1)),
		mustBlockJacobi(t, a, nodePartition(a.N, 4)),
		mustBlockJacobi(t, a, nodePartition(a.N, 16)),
	} {
		x, st, err := GMRESContext(context.Background(), a, b, nil, pc, opts)
		if err != nil {
			t.Fatalf("%s: %v", pc.Name(), err)
		}
		if !st.Converged {
			t.Fatalf("%s: did not converge: %v", pc.Name(), st)
		}
		if r := residual(a, x, b); r > 1e-4 {
			t.Errorf("%s: residual = %v", pc.Name(), r)
		}
		for i := range x {
			if math.Abs(x[i]-baseline[i]) > 1e-4 {
				t.Fatalf("%s: solution differs from baseline at %d", pc.Name(), i)
			}
		}
	}
	// Single-block BILU(0) of the full matrix should converge in far
	// fewer iterations than unpreconditioned GMRES.
	ilu := mustBlockJacobi(t, a, nodePartition(a.N, 1))
	_, stILU, err := GMRESContext(context.Background(), a, b, nil, ilu, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stILU.Iterations >= stNone.Iterations {
		t.Errorf("BILU(0) iterations (%d) not fewer than unpreconditioned (%d)",
			stILU.Iterations, stNone.Iterations)
	}
}

func mustBlockJacobi(t *testing.T, a *sparse.CSR, pt par.Partition) *BlockJacobiPC {
	t.Helper()
	pc, err := NewBlockJacobiILU0(a, pt)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func TestBlockJacobiIterationsGrowWithBlocks(t *testing.T) {
	// More blocks discard more coupling: iteration counts should not
	// decrease as block count rises (the solve-scaling effect the paper
	// observes).
	a := vectorLaplacian3D(8, 8, 8)
	b := randomRHS(a.N, 4)
	opts := DefaultOptions()
	opts.Tol = 1e-8
	prev := 0
	for _, blocks := range []int{1, 4, 16} {
		pc := mustBlockJacobi(t, a, nodePartition(a.N, blocks))
		_, st, err := GMRESContext(context.Background(), a, b, nil, pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("blocks=%d did not converge", blocks)
		}
		if st.Iterations < prev {
			t.Errorf("iterations decreased with more blocks: %d blocks -> %d iters (prev %d)",
				blocks, st.Iterations, prev)
		}
		prev = st.Iterations
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := laplacian1D(10)
	x, st, err := GMRESContext(context.Background(), a, make([]float64, 10), nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Error("zero RHS should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Error("zero RHS should give zero solution")
		}
	}
}

func TestGMRESRespectsX0(t *testing.T) {
	a := laplacian1D(20)
	b := randomRHS(20, 6)
	// Solve once, then restart from the solution: should converge with
	// zero iterations.
	x, _, err := GMRESContext(context.Background(), a, b, nil, nil, Options{Tol: 1e-12, MaxIter: 500, Restart: 20})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := GMRESContext(context.Background(), a, b, x, nil, Options{Tol: 1e-6, MaxIter: 500, Restart: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 1 {
		t.Errorf("warm start took %d iterations", st.Iterations)
	}
}

func TestGMRESErrors(t *testing.T) {
	a := laplacian1D(5)
	if _, _, err := GMRESContext(context.Background(), a, make([]float64, 4), nil, nil, DefaultOptions()); err == nil {
		t.Error("wrong rhs length accepted")
	}
	if _, _, err := GMRESContext(context.Background(), a, make([]float64, 5), make([]float64, 3), nil, DefaultOptions()); err == nil {
		t.Error("wrong x0 length accepted")
	}
}

func TestGMRESNonConvergenceReported(t *testing.T) {
	a := laplacian3D(8, 8, 8)
	b := randomRHS(a.N, 7)
	opts := Options{Tol: 1e-14, MaxIter: 3, Restart: 3}
	_, st, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Error("3 iterations cannot converge to 1e-14; Converged should be false")
	}
}

// TestSolversRejectNonFiniteTol: a NaN, infinite or negative Tol is an
// error in both solvers. No step compares below NaN, so a NaN Tol used
// to run all MaxIter iterations, long past a residual of 1e-16, and
// return Converged=false with a nil error. A zero Tol is
// DefaultOptions().Tol.
func TestSolversRejectNonFiniteTol(t *testing.T) {
	a := laplacian1D(50)
	b := randomRHS(50, 1)
	solvers := map[string]func(context.Context, *sparse.CSR, []float64, []float64, Preconditioner, Options) ([]float64, Stats, error){
		"gmres": GMRESContext, "cg": CGContext,
	}
	for name, solve := range solvers {
		for _, tol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-3} {
			_, st, err := solve(context.Background(), a, b, nil, nil, Options{Tol: tol, MaxIter: 500})
			if err == nil || !strings.Contains(err.Error(), "tolerance") {
				t.Errorf("%s, Tol %g: err=%v after %d iterations, want a tolerance error", name, tol, err, st.Iterations)
			}
		}
		zero, stZero, err := solve(context.Background(), a, b, nil, nil, Options{MaxIter: 500})
		if err != nil {
			t.Fatal(err)
		}
		def, stDef, err := solve(context.Background(), a, b, nil, nil, Options{Tol: DefaultOptions().Tol, MaxIter: 500})
		if err != nil {
			t.Fatal(err)
		}
		if !stZero.Converged || stZero.Iterations != stDef.Iterations || !sameBits(zero, def) {
			t.Errorf("%s: zero Tol ran %d iterations (converged %v), DefaultOptions().Tol %d",
				name, stZero.Iterations, stZero.Converged, stDef.Iterations)
		}
	}
}

func TestCGMatchesGMRES(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	b := randomRHS(a.N, 8)
	opts := DefaultOptions()
	opts.Tol = 1e-10
	xg, _, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	xc, st, err := CGContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("CG did not converge")
	}
	for i := range xg {
		if math.Abs(xg[i]-xc[i]) > 1e-6 {
			t.Fatalf("CG and GMRES disagree at %d", i)
		}
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	b := sparse.NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, -1) // indefinite
	a := b.Build()
	_, _, err := CGContext(context.Background(), a, []float64{1, 1}, nil, nil, DefaultOptions())
	if err == nil {
		t.Error("CG accepted an indefinite matrix")
	}
}

func TestCGWithJacobi(t *testing.T) {
	a := laplacian3D(7, 7, 7)
	b := randomRHS(a.N, 9)
	opts := DefaultOptions()
	opts.Tol = 1e-9
	x, st, err := CGContext(context.Background(), a, b, nil, NewJacobi(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	if r := residual(a, x, b); r > 1e-5 {
		t.Errorf("residual = %v", r)
	}
}

func TestILU0ExactForTriangularPattern(t *testing.T) {
	// For a matrix whose block LU factors fit its node-block pattern
	// (e.g. block tridiagonal: a chain of nodes), BILU(0) is an exact
	// factorization, even where the matrix stores only part of each
	// 3x3 block: a single preconditioner application solves the system.
	const nodes = 30
	rng := rand.New(rand.NewSource(10))
	bld := sparse.NewBuilder(3 * nodes)
	for i := 0; i < 3*nodes; i++ {
		bld.Add(i, i, 8)
		for j := max(3*(i/3-1), 0); j < min(3*(i/3+2), 3*nodes); j++ {
			if j != i && rng.Intn(3) > 0 { // a third of the entries left out
				bld.Add(i, j, rng.NormFloat64())
			}
		}
	}
	a := bld.Build()
	b := randomRHS(a.N, 10)
	pc := mustBlockJacobi(t, a, nodePartition(a.N, 1))
	x := make([]float64, a.N)
	pc.Apply(b, x)
	if r := residual(a, x, b); r > 1e-10 {
		t.Errorf("BILU(0) on a block-tridiagonal matrix not exact: residual %v", r)
	}
}

// TestBlockJacobiReportsLowestSingularBlock: two ranks fail at once (a
// node without a diagonal block each). Each must record its error
// without touching the other's — under -race a shared variable fails
// here — and the lowest rank's error is the one returned.
func TestBlockJacobiReportsLowestSingularBlock(t *testing.T) {
	b := sparse.NewBuilder(24)
	for i := 0; i < 24; i++ {
		if node := i / 3; node == 3 || node == 6 {
			b.Add(i, i-3, 1) // blocks 1 and 3 of four lose a diagonal block
		} else {
			b.Add(i, i, 2)
		}
	}
	a := b.Build()
	for rep := 0; rep < 20; rep++ {
		_, err := NewBlockJacobiILU0(a, nodePartition(24, 4))
		if err == nil || !strings.Contains(err.Error(), "block 1:") {
			t.Fatalf("error %v, want the one of block 1", err)
		}
	}
}

func TestJacobiPCApply(t *testing.T) {
	b := sparse.NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 4)
	b.Add(2, 2, 0) // zero diagonal handled as 1
	a := b.Build()
	pc := NewJacobi(a)
	z := make([]float64, 3)
	pc.Apply([]float64{2, 4, 5}, z)
	if z[0] != 1 || z[1] != 1 || z[2] != 5 {
		t.Errorf("Jacobi apply = %v", z)
	}
}

func TestPreconditionerNames(t *testing.T) {
	if (IdentityPC{}).Name() != "none" {
		t.Error("identity name")
	}
	a := vectorLaplacian3D(4, 1, 1)
	if NewJacobi(a).Name() != "jacobi" {
		t.Error("jacobi name")
	}
	pc := mustBlockJacobi(t, a, nodePartition(a.N, 2))
	if pc.Blocks() != 2 {
		t.Error("block count")
	}
}

// TestSolversRejectPartitionNotCoveringSystem: GMRES and CG run their
// products on opts.Partition only when it covers exactly the system's
// rows, and refuse any other non-zero partition. One over three rows too
// many used to fall back to a serial solve with a nil error; one whose
// starts ran past the rows panicked inside a rank worker.
func TestSolversRejectPartitionNotCoveringSystem(t *testing.T) {
	a := laplacian1D(30)
	b := RandomRHS(a.N, 1)
	solvers := map[string]func(context.Context, *sparse.CSR, []float64, []float64, Preconditioner, Options) ([]float64, Stats, error){
		"gmres": GMRESContext, "cg": CGContext,
	}
	solve := func(name string, pt par.Partition) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		opts := DefaultOptions()
		opts.Partition = pt
		_, _, err = solvers[name](context.Background(), a, b, nil, NewJacobi(a), opts)
		return err
	}
	for name := range solvers {
		for _, c := range []struct {
			name string
			pt   par.Partition
			want string // "" for a solve that must succeed
		}{
			{"zero", par.Partition{}, ""},
			{"one rank", par.Even(a.N, 1), ""},
			{"two ranks", par.Even(a.N, 2), ""},
			{"three rows too many", par.Even(a.N+3, 2), "does not cover"},
			{"starts past the rows", par.Partition{N: a.N, P: 2, Starts: []int{0, 31, 30}}, "decrease"},
			{"last start past the rows", par.Partition{N: a.N, P: 2, Starts: []int{0, 15, 31}}, "does not cover"},
		} {
			err := solve(name, c.pt)
			if c.want == "" && err != nil {
				t.Errorf("%s, %s: %v", name, c.name, err)
			}
			if c.want != "" && (err == nil || !strings.Contains(err.Error(), "solver: par: partition") || !strings.Contains(err.Error(), c.want)) {
				t.Errorf("%s, %s: err = %v, want a solver error saying %q", name, c.name, err, c.want)
			}
		}
	}
}
