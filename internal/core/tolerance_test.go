package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/phantom"
	"repro/internal/solver"
)

// TestDefaultTolLandsNearConvergedSolve: the solver's default stopping
// rule is a statement in millimetres, checked here in millimetres. A
// cold registration and two streamed updates of the size-28 phantom, at
// peak shifts from 3 and from 6 mm, run at DefaultConfig and again with
// the solve converged (Solver.Tol 1e-9). Per scan the production field
// lies within the rule's nodal RMS, DefaultOptions().Tol·√3 (three
// unknowns a node), of the converged one, no node is more than five
// times that away, and the error against the truth over the tissue mask
// moves by at most 0.002 mm.
func TestDefaultTolLandsNearConvergedSolve(t *testing.T) {
	eps := solver.DefaultOptions().Tol * math.Sqrt(3)
	for _, base := range []float64{3, 6} {
		var scans [3]*phantom.Case
		for i := range scans {
			p := phantom.DefaultParams(28)
			p.NoiseStd = 2
			p.ShiftMagnitude = base + 0.25*float64(i)
			scans[i] = phantom.Generate(p)
		}
		stream := func(tol float64) [3]*Result {
			t.Helper()
			cfg := DefaultConfig()
			cfg.Solver.Tol = tol
			sess, err := NewSession(cfg, scans[0].Preop, scans[0].PreopLabels)
			if err != nil {
				t.Fatal(err)
			}
			var out [3]*Result
			for i, c := range scans {
				step := sess.Update
				if i == 0 {
					step = sess.Register
				}
				if out[i], err = step(context.Background(), c.Intraop); err != nil {
					t.Fatalf("%g mm, scan %d: %v", base, i, err)
				}
				if !out[i].SolveStats.Converged {
					t.Fatalf("%g mm, scan %d: solve did not converge: %v", base, i, out[i].SolveStats)
				}
			}
			return out
		}
		prod, conv := stream(0), stream(1e-9)
		for i, c := range scans {
			p, q := prod[i], conv[i]
			sum, worst := 0.0, 0.0
			for n := range p.NodeDisplacements {
				d := p.NodeDisplacements[n].Sub(q.NodeDisplacements[n]).Norm()
				sum += d * d
				worst = max(worst, d)
			}
			rms := math.Sqrt(sum / float64(len(p.NodeDisplacements)))
			errP, err := p.Backward.RMSDifference(c.Truth, c.TissueMask)
			if err != nil {
				t.Fatal(err)
			}
			errQ, err := q.Backward.RMSDifference(c.Truth, c.TissueMask)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%g mm, scan %d: %d/%d iterations, nodal RMS %.2g mm, max %.2g mm, tissue error %.4f/%.4f mm",
				c.Params.ShiftMagnitude, i, p.SolveStats.Iterations, q.SolveStats.Iterations, rms, worst, errP, errQ)
			if rms > eps {
				t.Errorf("%g mm, scan %d: nodal RMS %.3g mm from the converged field, want <= %.3g", c.Params.ShiftMagnitude, i, rms, eps)
			}
			if worst > 5*eps {
				t.Errorf("%g mm, scan %d: a node %.3g mm from the converged field, want <= %.3g", c.Params.ShiftMagnitude, i, worst, 5*eps)
			}
			if d := math.Abs(errP - errQ); d > 0.002 {
				t.Errorf("%g mm, scan %d: tissue error %.4f mm, converged %.4f: moved %.4f, want <= 0.002", c.Params.ShiftMagnitude, i, errP, errQ, d)
			}
		}
	}
}
