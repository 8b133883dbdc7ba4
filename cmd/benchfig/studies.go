package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/demons"
	"repro/internal/fem"
	"repro/internal/figures"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/solver"
	"repro/internal/volume"
)

// balance compares the paper's equal-node-count decomposition with the
// work-aware one it proposes, on Figure 7's system and machine at 16
// CPUs.
func (r *runner) balance(eqs int) error {
	b, err := r.builtFor(eqs)
	if err != nil {
		return err
	}
	fmt.Printf("Deep Flow at 16 CPUs, %d equations: modelled seconds\n", b.NumEq)
	fmt.Printf("%-10s %12s %10s %8s\n", "partition", "assemble(s)", "solve(s)", "iters")
	var rows [2]figures.ScalingRow
	for i, s := range []figures.Strategy{figures.EvenStrategy, figures.BalancedStrategy} {
		if rows[i], err = figures.ScalingPointStrategy(r.ctx, b, cluster.DeepFlow(), 16, solver.DefaultOptions(), s); err != nil {
			return err
		}
		fmt.Printf("%-10s %12.3f %10.3f %8d\n", [...]string{"even", "balanced"}[i],
			rows[i].AssembleSec, rows[i].SolveSec, rows[i].Iterations)
	}
	r.check(eqs, figures.Equations77k, figures.BalanceClaims(rows[0], rows[1]))
	return nil
}

// precond counts GMRES iterations per preconditioner on a quarter of
// Figure 7's system.
func (r *runner) precond(eqs int) error {
	b, err := r.builtFor(eqs / 4)
	if err != nil {
		return err
	}
	rows, err := figures.PreconditionerStudy(r.ctx, b.System)
	if err != nil {
		return err
	}
	fmt.Printf("GMRES(30) to a 1e-6 mm step, %d equations\n", b.NumEq)
	fmt.Printf("%-12s %8s %10s\n", "pc", "iters", "converged")
	for _, row := range rows {
		fmt.Printf("%-12s %8d %10v\n", row.Name, row.Iterations, row.Converged)
	}
	r.check(eqs, figures.Equations77k, figures.PreconditionerClaims(rows))
	return nil
}

// variant is one row of an accuracy study: the pipeline's configuration
// with one choice changed by set; a nil set is the pipeline run itself.
type variant struct {
	name string
	set  func(*core.Config)
}

// study registers the pipeline's case under each variant and prints a
// row per variant: its RMS error against the truth over the brain mask
// and over the tissue mask, then cols of its result under head.
func (r *runner) study(head string, vs []variant, cols func(*phantom.Case, *core.Result) (string, error)) error {
	c, res, err := r.pipeline()
	if err != nil {
		return err
	}
	fmt.Printf("%d³ case, field RMS error against the truth\n", r.size)
	fmt.Printf("%-34s %10s %11s %s\n", "variant", "brain(mm)", "tissue(mm)", head)
	for _, v := range vs {
		if v.set != nil {
			if res, err = r.register(c, v.set); err != nil {
				return err
			}
		}
		extra, err := cols(c, res)
		if err == nil {
			err = accuracyRow(c, v.name, res.Backward, extra)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// accuracyRow prints a backward field's RMS error against the case's
// truth over the brain mask and over the tissue mask, then extra.
func accuracyRow(c *phantom.Case, name string, f *volume.Field, extra string) error {
	brain, _, err := c.TruthRMS(f)
	if err != nil {
		return err
	}
	tissue, err := f.RMSDifference(c.Truth, c.TissueMask)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %10.3f %11.3f %s\n", name, brain, tissue, extra)
	return nil
}

// materials compares the paper's homogeneous brain with its proposed
// falx and ventricle refinement, including the ventricles the paper
// saw misregistered.
func (r *runner) materials() error {
	return r.study("ventricles(mm)", []variant{
		{"homogeneous (paper)", nil},
		{"heterogeneous (falx, ventricles)", func(cfg *core.Config) { cfg.Materials = fem.HeterogeneousBrain() }},
	}, func(c *phantom.Case, res *core.Result) (string, error) {
		vent, err := res.Backward.RMSDifference(c.Truth, c.PreopLabels.Mask(volume.LabelVentricle))
		return fmt.Sprintf("%14.3f", vent), err
	})
}

// baseline compares the pipeline with the paper's image-based
// predecessor (a demons stand-in) and with rigid registration alone,
// and checks the skull each field moves.
func (r *runner) baseline() error {
	c, bio, err := r.pipeline()
	if err != nil {
		return err
	}
	skullMask := c.PreopLabels.Mask(volume.LabelSkull)
	skull := func(f *volume.Field) string { return fmt.Sprintf("%9.4f", f.MeanMagnitude(skullMask)) }
	if err := r.study("skull(mm)", []variant{{"biomechanical (pipeline)", nil}},
		func(_ *phantom.Case, res *core.Result) (string, error) { return skull(res.Backward), nil }); err != nil {
		return err
	}
	dm, err := demons.Register(c.Intraop, c.Preop, demons.DefaultOptions())
	if err != nil {
		return err
	}
	if err := accuracyRow(c, "demons (image-based)", dm.Field, skull(dm.Field)); err != nil {
		return err
	}
	rigid := volume.NewField(c.Grid)
	if err := accuracyRow(c, "rigid only", rigid, skull(rigid)); err != nil {
		return err
	}
	r.report(figures.BaselineClaims(bio.Backward.MeanMagnitude(skullMask), dm.Field.MeanMagnitude(skullMask))...)
	return nil
}

// resolution sweeps the mesh cell size: the paper's argument that
// coarse unstructured elements cut the equations at little accuracy
// cost.
func (r *runner) resolution() error {
	cell := func(n int) func(*core.Config) { return func(cfg *core.Config) { cfg.MeshCellSize = n } }
	return r.study("equations", []variant{{"cell 2 (pipeline)", nil}, {"cell 3", cell(3)}, {"cell 4", cell(4)}},
		func(_ *phantom.Case, res *core.Result) (string, error) {
			return fmt.Sprintf("%9d", 3*res.Mesh.NumNodes()), nil
		})
}

// mesher compares the paper's Kuhn lattice with the body-centred-cubic
// one it proposes ("a more regular connectivity pattern"): equations,
// element quality, and the assembly imbalance at 16 ranks (max over
// mean flops) the regular connectivity is meant to reduce.
func (r *runner) mesher() error {
	return r.study("equations  quality  imbalance", []variant{
		{"Kuhn (pipeline)", nil},
		{"BCC", func(cfg *core.Config) { cfg.UseBCCMesh = true }},
	}, func(_ *phantom.Case, res *core.Result) (string, error) {
		flops, _ := fem.AssemblyWorkModel(res.Mesh, par.Even(res.Mesh.NumNodes(), 16))
		peak, sum := 0.0, 0.0
		for _, f := range flops {
			peak = max(peak, f)
			sum += f
		}
		return fmt.Sprintf("%9d %8.3f %10.3f", 3*res.Mesh.NumNodes(), res.Mesh.Quality().MeanQuality,
			peak/(sum/float64(len(flops)))), nil
	})
}
