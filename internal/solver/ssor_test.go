package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/sparse"
)

func TestSSORAcceleratesGMRES(t *testing.T) {
	a := laplacian3D(8, 8, 8)
	b := randomRHS(a.N, 41)
	opts := DefaultOptions()
	opts.Tol = 1e-9
	_, stNone, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewSSOR(a, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	x, stSSOR, err := GMRESContext(context.Background(), a, b, nil, pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stSSOR.Converged {
		t.Fatal("SSOR-preconditioned GMRES did not converge")
	}
	if stSSOR.Iterations >= stNone.Iterations {
		t.Errorf("SSOR iterations (%d) not fewer than unpreconditioned (%d)",
			stSSOR.Iterations, stNone.Iterations)
	}
	if r := residual(a, x, b); r > 1e-5 {
		t.Errorf("residual = %v", r)
	}
}

func TestSSORSolutionMatchesBaseline(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	b := randomRHS(a.N, 42)
	opts := DefaultOptions()
	opts.Tol = 1e-10
	base, _, err := GMRESContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, omega := range []float64{0.8, 1.0, 1.4} {
		pc, err := NewSSOR(a, omega)
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := GMRESContext(context.Background(), a, b, nil, pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("omega=%v not converged", omega)
		}
		for i := range x {
			if math.Abs(x[i]-base[i]) > 1e-5 {
				t.Fatalf("omega=%v: solution differs at %d", omega, i)
			}
		}
	}
}

func TestSSORRejectsBadInputs(t *testing.T) {
	a := laplacian1D(5)
	if _, err := NewSSOR(a, 2.0); err == nil {
		t.Error("omega=2 accepted")
	}
	// Zero diagonal rejected.
	b := sparse.NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	if _, err := NewSSOR(b.Build(), 1); err == nil {
		t.Error("zero diagonal accepted")
	}
	// omega <= 0 defaults to 1.
	pc, err := NewSSOR(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Name() != "ssor(1)" {
		t.Errorf("Name = %q", pc.Name())
	}
}

func TestSSORExactOnDiagonalMatrix(t *testing.T) {
	// For a purely diagonal matrix SSOR is an exact solve.
	b := sparse.NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 4)
	b.Add(2, 2, 8)
	a := b.Build()
	pc, err := NewSSOR(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, 3)
	pc.Apply([]float64{2, 4, 8}, z)
	for i, want := range []float64{1, 1, 1} {
		if math.Abs(z[i]-want) > 1e-12 {
			t.Errorf("z[%d] = %v, want %v", i, z[i], want)
		}
	}
}
