package figures

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/solver"
)

// smallSystem builds a reduced-size system (a few thousand equations)
// so the scaling machinery can be exercised quickly; the full 77,511-
// equation study runs in the benchmark harness.
func smallSystem(t *testing.T) *Built {
	t.Helper()
	b, err := BuildHeadSystem(context.Background(), SystemSpec{TargetEquations: 4500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildHeadSystemCalibration(t *testing.T) {
	b := smallSystem(t)
	if b.NumEq < 2500 || b.NumEq > 8000 {
		t.Errorf("equations = %d, want within ~50%% of 4500", b.NumEq)
	}
	if b.NumBC == 0 {
		t.Error("no boundary conditions")
	}
	if b.NumBC >= b.NumEq {
		t.Error("everything constrained")
	}
	if b.System.K.N != b.NumEq {
		t.Error("matrix size mismatch")
	}
}

func TestBuildHeadSystemRejectsBadSpec(t *testing.T) {
	if _, err := BuildHeadSystem(context.Background(), SystemSpec{TargetEquations: 0}); err == nil {
		t.Error("zero equations accepted")
	}
}

func TestScalingStudyShape(t *testing.T) {
	// The shape assertions use the SMP machine: on a test-sized system
	// (thousands of equations) the Fast-Ethernet latency of the Deep
	// Flow model correctly dominates and masks the speedup that the
	// paper's 77,511-equation system exhibits (see
	// TestEthernetNeedsLargeSystems and the benchmark harness for the
	// full-size study).
	b := smallSystem(t)
	mach := cluster.UltraHPC6000()
	opts := solver.DefaultOptions()
	opts.Tol = 1e-6
	rows, err := ScalingStudy(context.Background(), b, mach, []int{1, 2, 4, 8, 16}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("cpus=%d: solver did not converge", r.CPUs)
		}
		if r.AssembleSec <= 0 || r.SolveSec <= 0 {
			t.Errorf("cpus=%d: non-positive times %+v", r.CPUs, r)
		}
		if r.TotalSec < r.AssembleSec+r.SolveSec {
			t.Errorf("cpus=%d: total below assemble+solve", r.CPUs)
		}
	}
	// Paper shape: assembly and solve both speed up from 1 to 16 CPUs.
	if rows[4].AssembleSec >= rows[0].AssembleSec {
		t.Errorf("assembly did not speed up: %v -> %v", rows[0].AssembleSec, rows[4].AssembleSec)
	}
	if rows[4].SolveSec >= rows[0].SolveSec {
		t.Errorf("solve did not speed up: %v -> %v", rows[0].SolveSec, rows[4].SolveSec)
	}
	// Scaling is sublinear (the paper's observation): 16 CPUs give less
	// than 16x on the solve.
	if sp := rows[0].SolveSec / rows[4].SolveSec; sp >= 16 {
		t.Errorf("solve speedup %vx is superlinear?", sp)
	}
	// Iteration counts do not decrease with more blocks.
	for i := 1; i < len(rows); i++ {
		if rows[i].Iterations < rows[i-1].Iterations {
			t.Errorf("iterations decreased from %d to %d with more blocks",
				rows[i-1].Iterations, rows[i].Iterations)
		}
	}
}

func TestScalingStudyRespectsMachineLimit(t *testing.T) {
	b := smallSystem(t)
	mach := cluster.Ultra80Pair() // max 8 CPUs
	if _, err := ScalingStudy(context.Background(), b, mach, []int{16}, solver.DefaultOptions()); err == nil {
		t.Error("16 CPUs accepted on an 8-CPU machine")
	}
	if _, err := ScalingStudy(context.Background(), b, mach, []int{0}, solver.DefaultOptions()); err == nil {
		t.Error("0 CPUs accepted")
	}
}

func TestEthernetNeedsLargeSystems(t *testing.T) {
	// Physical sanity of the machine models: on a small system the
	// low-latency SMP scales better than the Fast-Ethernet cluster,
	// whose per-iteration allreduce latency swamps the shrunken
	// per-rank compute. (At the paper's 77,511 equations the cluster
	// scales fine — that is the benchmark harness's job to show.)
	b := smallSystem(t)
	opts := solver.DefaultOptions()
	opts.Tol = 1e-6
	rowsDF, err := ScalingStudy(context.Background(), b, cluster.DeepFlow(), []int{1, 8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rowsSMP, err := ScalingStudy(context.Background(), b, cluster.UltraHPC6000(), []int{1, 8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	spDF := rowsDF[0].SolveSec / rowsDF[1].SolveSec
	spSMP := rowsSMP[0].SolveSec / rowsSMP[1].SolveSec
	if spSMP <= 1 {
		t.Errorf("SMP shows no speedup on small system: %vx", spSMP)
	}
	if spDF >= spSMP {
		t.Errorf("Ethernet cluster (%vx) should scale worse than SMP (%vx) at this size",
			spDF, spSMP)
	}
}

func TestBalancedStrategyNotWorse(t *testing.T) {
	// The paper's proposed future work (work-aware decomposition) must
	// not produce slower model times than the even decomposition.
	b := smallSystem(t)
	mach := cluster.UltraHPC6000()
	opts := solver.DefaultOptions()
	opts.Tol = 1e-6
	for _, cpus := range []int{4, 8} {
		even, err := ScalingPointStrategy(context.Background(), b, mach, cpus, opts, EvenStrategy)
		if err != nil {
			t.Fatal(err)
		}
		bal, err := ScalingPointStrategy(context.Background(), b, mach, cpus, opts, BalancedStrategy)
		if err != nil {
			t.Fatal(err)
		}
		if !bal.Converged {
			t.Fatalf("cpus=%d: balanced solve did not converge", cpus)
		}
		// Assembly is deterministic per partition: balanced must not be
		// slower beyond rounding. (The solve involves a different block
		// preconditioner, so iteration counts may shift either way; only
		// assembly is strictly comparable.)
		if bal.AssembleSec > even.AssembleSec*1.02 {
			t.Errorf("cpus=%d: balanced assembly %v slower than even %v",
				cpus, bal.AssembleSec, even.AssembleSec)
		}
	}
}

func TestFormatRows(t *testing.T) {
	rows := []ScalingRow{{CPUs: 1, AssembleSec: 10, SolveSec: 20, TotalSec: 31, Iterations: 100}}
	s := FormatRows("Figure 7", rows)
	for _, want := range []string{"Figure 7", "CPUs", "10.00", "20.00", "31.00", "100"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted output missing %q:\n%s", want, s)
		}
	}
}
