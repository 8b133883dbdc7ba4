package solver

import (
	"context"
	"testing"

	"repro/internal/par"
)

func BenchmarkGMRESUnpreconditioned(b *testing.B) {
	a := laplacian3D(12, 12, 12)
	rhs := randomRHS(a.N, 1)
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err := GMRESContext(context.Background(), a, rhs, nil, nil, opts); err != nil || !st.Converged {
			b.Fatalf("err=%v st=%v", err, st)
		}
	}
}

func BenchmarkGMRESBlockJacobi8(b *testing.B) {
	a := vectorLaplacian3D(12, 12, 12)
	rhs := randomRHS(a.N, 1)
	opts := DefaultOptions()
	pc, err := NewBlockJacobiILU0(a, nodePartition(a.N, 8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err := GMRESContext(context.Background(), a, rhs, nil, pc, opts); err != nil || !st.Converged {
			b.Fatalf("err=%v st=%v", err, st)
		}
	}
}

func BenchmarkCGJacobi(b *testing.B) {
	a := laplacian3D(12, 12, 12)
	rhs := randomRHS(a.N, 1)
	opts := DefaultOptions()
	pc := NewJacobi(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err := CGContext(context.Background(), a, rhs, nil, pc, opts); err != nil || !st.Converged {
			b.Fatalf("err=%v st=%v", err, st)
		}
	}
}

func BenchmarkILU0Setup(b *testing.B) {
	a := vectorLaplacian3D(14, 14, 14)
	pt := par.Even(a.N, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewBlockJacobiILU0(a, pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkILU0Apply(b *testing.B) {
	a := vectorLaplacian3D(14, 14, 14)
	pc, err := NewBlockJacobiILU0(a, par.Even(a.N, 1))
	if err != nil {
		b.Fatal(err)
	}
	r := randomRHS(a.N, 2)
	z := make([]float64, a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Apply(r, z)
	}
}
