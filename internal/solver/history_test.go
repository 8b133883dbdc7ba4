package solver

import (
	"context"
	"testing"
)

func TestGMRESHistoryMonotoneWithinCycle(t *testing.T) {
	a := laplacian3D(8, 8, 8)
	b := randomRHS(a.N, 31)
	opts := DefaultOptions()
	opts.Tol = 1e-9
	opts.RecordHistory = true
	_, st, err := GMRESContext(context.Background(), a, b, nil, NewJacobi(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	if len(st.History) == 0 {
		t.Fatal("no history recorded")
	}
	if len(st.History) != st.Iterations {
		t.Errorf("history length %d != iterations %d", len(st.History), st.Iterations)
	}
	// Within a GMRES cycle the least-squares residual never increases.
	restart := opts.Restart
	for i := 1; i < len(st.History); i++ {
		if i%restart == 0 {
			continue // restart boundary may jump
		}
		if st.History[i] > st.History[i-1]+1e-12 {
			t.Fatalf("residual increased within cycle at iter %d: %v -> %v",
				i, st.History[i-1], st.History[i])
		}
	}
	// The history ends at the residual the solve reports.
	if last := st.History[len(st.History)-1]; last != st.FinalResRel {
		t.Errorf("final history %v, reported residual %v", last, st.FinalResRel)
	}
}

func TestHistoryOffByDefault(t *testing.T) {
	a := laplacian1D(20)
	b := randomRHS(20, 32)
	_, st, err := GMRESContext(context.Background(), a, b, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.History != nil {
		t.Error("history recorded without RecordHistory")
	}
}

func TestCGHistory(t *testing.T) {
	a := laplacian3D(6, 6, 6)
	b := randomRHS(a.N, 33)
	opts := DefaultOptions()
	opts.Tol = 1e-8
	opts.RecordHistory = true
	_, st, err := CGContext(context.Background(), a, b, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.History) != st.Iterations {
		t.Errorf("history length %d != iterations %d", len(st.History), st.Iterations)
	}
	if last := st.History[len(st.History)-1]; last != st.FinalResRel {
		t.Errorf("final CG history %v, reported residual %v", last, st.FinalResRel)
	}
}

// TestBlockCountConvergenceCurves reproduces the solver-quality side of
// the paper's scaling observation: more Jacobi blocks (CPUs) mean a
// weaker preconditioner, visible as a slower convergence curve.
func TestBlockCountConvergenceCurves(t *testing.T) {
	a := vectorLaplacian3D(10, 10, 10)
	b := randomRHS(a.N, 34)
	opts := DefaultOptions()
	opts.Tol = 1e-8
	opts.RecordHistory = true
	var lengths []int
	for _, blocks := range []int{1, 8, 64} {
		pc := mustBlockJacobi(t, a, nodePartition(a.N, blocks))
		_, st, err := GMRESContext(context.Background(), a, b, nil, pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("blocks=%d not converged", blocks)
		}
		lengths = append(lengths, len(st.History))
	}
	for i := 1; i < len(lengths); i++ {
		if lengths[i] < lengths[i-1] {
			t.Errorf("convergence curve shortened with more blocks: %v", lengths)
		}
	}
}
