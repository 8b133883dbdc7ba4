package figures

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/solver"
)

// smallSystem builds a reduced-size system (a few thousand equations)
// so the scaling machinery can be exercised quickly; the full-size
// study, and its claims, run in cmd/benchfig.
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
	// TestEthernetNeedsLargeSystems, and cmd/benchfig for the full-size
	// study).
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
	// scales fine — cmd/benchfig's Figure 7 claims show that.)
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

// TestScalingClaims holds the paper's claims to rows built to break
// each one, and to the rows cmd/benchfig measured at the paper's sizes
// (first and last CPU count of each sweep). No system is built.
func TestScalingClaims(t *testing.T) {
	figs := map[string]ScalingFigure{}
	for _, f := range ScalingFigures() {
		figs[f.Name] = f
		if f.CPUs[0] != 1 {
			t.Errorf("%s: sweep starts at %d CPUs, want 1", f.Title, f.CPUs[0])
		}
		for i, p := range f.CPUs {
			if p < 1 || p > f.Machine.MaxCPUs || i > 0 && p <= f.CPUs[i-1] {
				t.Errorf("%s: sweep %v does not ascend within [1, %d]", f.Title, f.CPUs, f.Machine.MaxCPUs)
				break
			}
		}
	}
	row := func(cpus int, assemble, solve, total float64) ScalingRow {
		return ScalingRow{CPUs: cpus, AssembleSec: assemble, SolveSec: solve, TotalSec: total, Converged: true}
	}
	measured := map[string][]ScalingRow{
		"7":  {row(1, 31.65, 3.72, 36.86), row(16, 2.15, 1.01, 4.65)},
		"8a": {row(1, 51.61, 6.61, 60.72), row(20, 2.81, 0.69, 6.00)},
		"8b": {row(1, 29.75, 3.72, 35.26), row(8, 3.94, 1.23, 6.98)},
		"9":  {row(1, 183.72, 37.86, 224.08), row(20, 9.75, 3.28, 15.53)},
	}
	if len(measured) != len(figs) {
		t.Fatalf("%d measured figures for %d scaling figures", len(measured), len(figs))
	}
	for name, rows := range measured {
		for _, c := range figs[name].Claims(rows) {
			if !c.Holds {
				t.Errorf("figure %s, measured rows: claim fails: %s", name, c.Text)
			}
		}
	}
	// failsOne wants exactly one failed claim, whose text names want.
	failsOne := func(name, want string, rows []ScalingRow) {
		t.Helper()
		var failed []string
		for _, c := range figs[name].Claims(rows) {
			if !c.Holds {
				failed = append(failed, c.Text)
			}
		}
		if len(failed) != 1 || !strings.Contains(failed[0], want) {
			t.Errorf("figure %s: failed claims %q, want one naming %q", name, failed, want)
		}
	}
	notConverged := append([]ScalingRow(nil), measured["8b"]...)
	notConverged[1].Converged = false
	failsOne("8b", "converged (1 of 2)", notConverged)
	failsOne("8a", "total falls", []ScalingRow{row(1, 2.81, 0.69, 6.00), row(20, 2.81, 0.69, 6.00)})
	failsOne("7", "is 10.00 s, want < 10 s", []ScalingRow{row(1, 31.65, 3.72, 36.86), row(16, 8, 2, 11.5)})
	failsOne("9", "is 60.01 s, want ≤ 60 s", []ScalingRow{row(1, 183.72, 37.86, 224.08), row(20, 50, 10.01, 62)})
	// Figure 9's minute is inclusive, Figure 7's ten seconds are not.
	for _, c := range figs["9"].Claims([]ScalingRow{row(1, 183.72, 37.86, 224.08), row(20, 50, 10, 62)}) {
		if !c.Holds {
			t.Errorf("figure 9 at 60 s: claim fails: %s", c.Text)
		}
	}
	if cs := figs["7"].Claims(nil); len(cs) != 1 || cs[0].Holds {
		t.Errorf("no rows: claims %v, want one that fails", cs)
	}
}

// TestAblationClaims holds the studies' claims to the numbers
// cmd/benchfig measured at the paper's sizes, and to numbers built to
// break each one. No system is built.
func TestAblationClaims(t *testing.T) {
	// failed lists the texts of the claims that fail.
	failed := func(cs []Claim) (out []string) {
		for _, c := range cs {
			if !c.Holds {
				out = append(out, c.Text)
			}
		}
		return out
	}
	check := func(name string, cs []Claim, want string) {
		t.Helper()
		got := failed(cs)
		if want == "" && len(got) != 0 || want != "" && (len(got) != 1 || !strings.Contains(got[0], want)) {
			t.Errorf("%s: failed claims %q, want %q", name, got, want)
		}
	}
	even := ScalingRow{CPUs: 16, AssembleSec: 2.146}
	check("balance measured", BalanceClaims(even, ScalingRow{CPUs: 16, AssembleSec: 2.026}), "")
	check("balance at 1.05×", BalanceClaims(ScalingRow{CPUs: 16, AssembleSec: 2}, ScalingRow{CPUs: 16, AssembleSec: 2.1}), "")
	check("balance slower", BalanceClaims(even, ScalingRow{CPUs: 16, AssembleSec: 2.26}), "2.260 s, ≤ 1.05 × even 2.146 s")

	pcs := func(none, bj, global int, converged bool) []PCRow {
		return []PCRow{{PCNone, none, true}, {PCJacobi, 147, true}, {PCSSOR, 46, converged},
			{PCBlockJacobi, bj, true}, {PCGlobalILU, global, true}}
	}
	check("precond measured", PreconditionerClaims(pcs(3754, 84, 32, true)), "")
	check("precond equal", PreconditionerClaims(pcs(84, 84, 84, true)), "fewer iterations than none (84 < 84)")
	check("precond global worse", PreconditionerClaims(pcs(3754, 84, 85, true)), "(85 ≤ 84)")
	check("precond unconverged", PreconditionerClaims(pcs(3754, 84, 32, false)), "converged (4 of 5)")
	if got := failed(PreconditionerClaims(nil)); len(got) == 0 || !strings.Contains(got[0], "(0 of 0)") {
		t.Errorf("no rows: failed claims %q, want the convergence claim first", got)
	}

	check("baseline measured", BaselineClaims(0.0031, 0.4425), "")
	check("baseline at the limits", BaselineClaims(0.2, 0.41), "")
	check("baseline skull moved", BaselineClaims(0.21, 0.5), "0.2100 mm, ≤ 0.2 mm")
	check("baseline demons close", BaselineClaims(0.1, 0.2), "more than twice")
}
