package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/solver"
)

// TestPipelineEmitsNestedTrace runs a full registration with tracing on
// and verifies the emitted JSONL: every stage span hangs off the
// pipeline root, and the GMRES restart-cycle spans parent-chain through
// fem.solve up to the solve stage with the residual history attached.
func TestPipelineEmitsNestedTrace(t *testing.T) {
	c := testCase(24)
	cfg := fastConfig()
	cfg.Solver.RecordHistory = true

	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	ctx := obs.WithTracer(context.Background(), tracer)

	if _, err := registerCase(ctx, cfg, c); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadSpans(&buf)
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}

	byID := make(map[uint64]obs.SpanRecord, len(recs))
	byName := make(map[string][]obs.SpanRecord)
	for _, r := range recs {
		byID[r.ID] = r
		byName[r.Name] = append(byName[r.Name], r)
	}

	roots := byName["pipeline.run"]
	if len(roots) != 1 {
		t.Fatalf("%d pipeline.run spans, want 1", len(roots))
	}
	root := roots[0]
	if root.Parent != 0 {
		t.Errorf("pipeline.run has parent %d, want root", root.Parent)
	}
	if root.Attrs["degraded"] != false {
		t.Errorf("pipeline.run attrs = %v, want degraded=false", root.Attrs)
	}

	// Every pipeline stage appears exactly once, as a direct child of
	// the run span, flagged kind=stage.
	for _, stage := range Stages {
		spans := byName[stage]
		if len(spans) != 1 {
			t.Fatalf("stage %q: %d spans, want 1", stage, len(spans))
		}
		s := spans[0]
		if s.Parent != root.ID {
			t.Errorf("stage %q parented to %d, want pipeline.run %d", stage, s.Parent, root.ID)
		}
		if s.Attrs["kind"] != "stage" {
			t.Errorf("stage %q attrs = %v, want kind=stage", stage, s.Attrs)
		}
		if s.Err != "" {
			t.Errorf("stage %q recorded error %q", stage, s.Err)
		}
	}
	solveStage := byName[StageSolve][0]

	// The solver's restart cycles chain gmres.cycle -> fem.solve ->
	// solve stage, and with Solver.RecordHistory each cycle carries its
	// residual history slice.
	solves := byName["fem.solve"]
	if len(solves) != 1 {
		t.Fatalf("%d fem.solve spans, want 1", len(solves))
	}
	if solves[0].Parent != solveStage.ID {
		t.Errorf("fem.solve parented to %d, want solve stage %d", solves[0].Parent, solveStage.ID)
	}
	cycles := byName["gmres.cycle"]
	if len(cycles) == 0 {
		t.Fatal("no gmres.cycle spans emitted")
	}
	historySeen := false
	for _, cy := range cycles {
		if cy.Parent != solves[0].ID {
			t.Errorf("gmres.cycle %d parented to %d, want fem.solve %d", cy.ID, cy.Parent, solves[0].ID)
		}
		if hist, ok := cy.Attrs["residual_history"].([]any); ok && len(hist) > 0 {
			historySeen = true
			if _, ok := hist[0].(float64); !ok {
				t.Errorf("residual_history entries = %T, want numbers", hist[0])
			}
		}
	}
	if !historySeen {
		t.Error("no gmres.cycle span carries a residual_history attribute")
	}

	// FEM assembly nests under the solve stage too, with the par
	// counters attached.
	assemblies := byName["fem.assemble"]
	if len(assemblies) == 0 {
		t.Fatal("no fem.assemble span emitted")
	}
	for _, a := range assemblies {
		if a.Parent != solveStage.ID {
			t.Errorf("fem.assemble parented to %d, want solve stage %d", a.Parent, solveStage.ID)
		}
		if f, ok := a.Attrs["flops"].(float64); !ok || f <= 0 {
			t.Errorf("fem.assemble flops attr = %v, want > 0", a.Attrs["flops"])
		}
		if _, ok := a.Attrs["imbalance"].(float64); !ok {
			t.Errorf("fem.assemble attrs = %v, want imbalance", a.Attrs)
		}
	}

	// Classification worker batches nest under the classify stage, and
	// the surface evolutions under the surface stage.
	classify := byName[StageClassify][0]
	if batches := byName["knn.batch"]; len(batches) == 0 {
		t.Error("no knn.batch spans emitted")
	} else {
		for _, b := range batches {
			if b.Parent != classify.ID {
				t.Errorf("knn.batch parented to %d, want classify stage %d", b.Parent, classify.ID)
			}
		}
	}
	surfaceStage := byName[StageSurface][0]
	evolves := byName["surface.evolve"]
	if len(evolves) == 0 {
		t.Error("no surface.evolve spans emitted")
	}
	for _, e := range evolves {
		if e.Parent != surfaceStage.ID {
			t.Errorf("surface.evolve parented to %d, want surface stage %d", e.Parent, surfaceStage.ID)
		}
		if _, ok := e.Attrs["iterations"].(float64); !ok {
			t.Errorf("surface.evolve attrs = %v, want iterations", e.Attrs)
		}
	}
}

// TestSolveFactsAreStatedOnce: after a cold and a warm solve the
// fem.solve span states the solve — the solver's ten statistics with
// the values of the returned Stats, and fem's three — and no other span
// of the run repeats a solve statistic or a patch count. The stopping
// rule's step_rms is there, within Solver.Tol on a converged solve.
func TestSolveFactsAreStatedOnce(t *testing.T) {
	scans := shiftScans(24, 1)
	var buf bytes.Buffer
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(&buf))
	sess, err := NewSession(fastConfig(), scans[0].Preop, scans[0].PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sess.Register(ctx, scans[0].Intraop)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Update(ctx, scans[1].Intraop)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var solves []obs.SpanRecord
	for _, r := range recs {
		switch r.Name {
		case obs.SpanFEMSolve.String():
			solves = append(solves, r)
			continue
		case obs.SpanGMRESCycle.String(), obs.SpanSurfaceEvolve.String():
			continue // a cycle's, an evolution's own iterations: other facts
		}
		for k := range r.Attrs {
			_, stat := solveFacts(solver.Stats{})[k]
			if stat || strings.HasPrefix(k, "solver_") || strings.HasPrefix(k, "pc_") ||
				strings.HasPrefix(k, "dofs_") && r.Name != obs.SpanFEMPatchBC.String() {
				t.Errorf("span %q restates %q = %v", r.Name, k, r.Attrs[k])
			}
		}
	}
	if len(solves) != 2 {
		t.Fatalf("%d fem.solve spans, want a cold and a warm one", len(solves))
	}
	for i, res := range []*Result{cold, warm} {
		want := solveFacts(res.SolveStats)
		want["dofs"] = float64(3 * res.Mesh.NumNodes())
		want["pc_cache_hit"] = i == 1
		got := solves[i].Attrs
		if _, ok := got["pc_setup_ms"].(float64); !ok {
			t.Errorf("solve %d: pc_setup_ms = %v, want a duration", i, got["pc_setup_ms"])
		}
		delete(got, "pc_setup_ms")
		if !reflect.DeepEqual(got, want) {
			t.Errorf("solve %d: fem.solve attrs\n got %v\nwant %v", i, got, want)
		}
		if step, ok := got["step_rms"].(float64); !ok || got["converged"] != true || step > fastConfig().Solver.Tol {
			t.Errorf("solve %d: step_rms = %v (converged %v), want a converged step within %g mm",
				i, got["step_rms"], got["converged"], fastConfig().Solver.Tol)
		}
	}
	if !warm.SolveStats.WarmStarted || cold.SolveStats.WarmStarted {
		t.Errorf("WarmStarted cold=%v warm=%v", cold.SolveStats.WarmStarted, warm.SolveStats.WarmStarted)
	}
}

// solveFacts is what a fem.solve span read back from JSONL says of st.
func solveFacts(st solver.Stats) map[string]any {
	return map[string]any{
		"iterations": float64(st.Iterations), "matvecs": float64(st.MatVecs), "converged": st.Converged,
		"step_rms": st.StepRMS, "entry_rel_residual": st.EntryResRel, "final_rel_residual": st.FinalResRel,
		"restarts": float64(st.Restarts), "stagnated_cycles": float64(st.StagnatedCycles),
		"diverged": st.Diverged, "warm_started": st.WarmStarted,
	}
}

// TestPipelineWithoutTracerEmitsNothing pins the zero-cost-when-off
// contract: no tracer on the context means no spans and no allocations
// of span machinery visible to the caller.
func TestPipelineWithoutTracerEmitsNothing(t *testing.T) {
	ctx, span := obs.StartSpan(context.Background(), obs.SpanPipelineRun)
	if span != nil {
		t.Fatal("StartSpan without tracer returned a live span")
	}
	if obs.SpanFromContext(ctx) != nil {
		t.Fatal("span leaked into context")
	}
}
