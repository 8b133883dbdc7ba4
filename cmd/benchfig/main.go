// Command benchfig regenerates every table and figure of the paper's
// evaluation section as text tables (and PGM/PPM images for Figures 4
// and 5), and checks the paper's claims on them:
//
//	benchfig -fig 3    Deep Flow node specification table
//	benchfig -fig 4    match-quality metrics + slice images (Fig 4a-d)
//	benchfig -fig 5    surface displacement statistics (Fig 5 color map)
//	benchfig -fig 6    pipeline stage timeline (Fig 6)
//	benchfig -fig 7    scaling on the Deep Flow cluster
//	benchfig -fig 8a   scaling on the Ultra HPC 6000 SMP
//	benchfig -fig 8b   scaling on the 2x Ultra 80 pair
//	benchfig -fig 9    the larger system's scaling on the Ultra HPC 6000
//
// and the design-choice studies of DESIGN §4:
//
//	benchfig -fig balance     even vs work-aware decomposition, Figure 7's system at 16 CPUs
//	benchfig -fig precond     GMRES iterations per preconditioner, a quarter of that system
//	benchfig -fig materials   homogeneous vs heterogeneous (falx, ventricles) material
//	benchfig -fig baseline    the pipeline vs the image-based (demons) predecessor
//	benchfig -fig resolution  mesh cell 2, 3 and 4 voxels
//	benchfig -fig mesher      Kuhn vs BCC lattice
//	benchfig -fig all         everything
//
// The accuracy studies run Figures 4-6's case and print each field's
// RMS error against the truth over the whole brain mask and over the
// tissue mask; the pipeline run behind Figures 4-6 is their first row.
// Figure 4's claim, that the simulated deformation matches the scan
// better than rigid registration alone, and the baseline's skull claims
// are checked at any -size. The scaling figures' machines, system
// sizes, CPU sweeps and claims come from figures.ScalingFigures; those
// claims and the balance and preconditioner studies' hold at the
// paper's sizes, so a run shrunk by -quick, -eqs or -eqs9 prints them
// as not checked. benchfig exits 1 when a checked claim fails, after
// printing every figure. Absolute times for figures 7-9 come from the
// calibrated machine models driven by measured per-rank work; see
// DESIGN.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/geom"
	"repro/internal/phantom"
	"repro/internal/render"
	"repro/internal/solver"
	"repro/internal/volume"
)

func main() {
	fig := flag.String("fig", "all", "figure or study to regenerate: 3,4,5,6,7,8a,8b,9,balance,precond,materials,baseline,resolution,mesher,all")
	eqs7 := flag.Int("eqs", figures.Equations77k, "target equations for figures 7/8")
	eqs9 := flag.Int("eqs9", figures.Equations253k, "target equations for figure 9")
	size := flag.Int("size", 48, "phantom grid size for figures 4-6")
	outDir := flag.String("out", ".", "output directory for slice images")
	quick := flag.Bool("quick", false, "shrink systems ~10x for a fast smoke run")
	csvDir := flag.String("csv", "", "directory to write per-figure scaling CSVs (empty = none)")
	flag.Parse()

	if *quick {
		*eqs7 /= 10
		*eqs9 /= 10
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
	// target maps each of the paper's system sizes to the one this run
	// builds.
	target := map[int]int{figures.Equations77k: *eqs7, figures.Equations253k: *eqs9}
	r := &runner{ctx: context.Background(), size: *size, outDir: *outDir, csvDir: *csvDir,
		built: map[int]*figures.Built{}}

	type entry struct {
		kind, name string
		run        func() error
	}
	entries := []entry{
		{"Figure", "3", func() error { fmt.Print(cluster.Fig3Table()); return nil }},
		{"Figure", "4", r.fig4},
		{"Figure", "5", r.fig5},
		{"Figure", "6", r.fig6},
	}
	for _, f := range figures.ScalingFigures() {
		entries = append(entries, entry{"Figure", f.Name, func() error { return r.scaling(f, target[f.Equations]) }})
	}
	entries = append(entries,
		entry{"Study", "balance", func() error { return r.balance(*eqs7) }},
		entry{"Study", "precond", func() error { return r.precond(*eqs7) }},
		entry{"Study", "materials", r.materials},
		entry{"Study", "baseline", r.baseline},
		entry{"Study", "resolution", r.resolution},
		entry{"Study", "mesher", r.mesher},
	)
	ran := false
	for _, e := range entries {
		if *fig != "all" && *fig != e.name {
			continue
		}
		ran = true
		fmt.Printf("=== %s %s ===\n", e.kind, e.name)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s %s: %v\n", e.kind, e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if r.failed {
		fmt.Fprintln(os.Stderr, "benchfig: a claim of the paper failed")
		os.Exit(1)
	}
}

// runner holds what the figures of one benchfig run share: the pipeline
// run behind Figures 4-6, the systems behind Figures 7-9, and whether a
// checked claim failed.
type runner struct {
	ctx            context.Context
	size           int
	outDir, csvDir string

	pipe struct {
		done bool
		c    *phantom.Case
		res  *core.Result
		err  error
	}
	built  map[int]*figures.Built
	failed bool
}

// report prints each checked claim with its verdict and records a
// failure.
func (r *runner) report(claims ...figures.Claim) {
	for _, c := range claims {
		verdict := "holds"
		if !c.Holds {
			verdict, r.failed = "FAILS", true
		}
		fmt.Printf("claim %s: %s\n", verdict, c.Text)
	}
}

// check reports claims that hold at the paper's system size, or says
// they were not checked on a run that shrank it.
func (r *runner) check(eqs, paperEqs int, claims []figures.Claim) {
	if eqs != paperEqs {
		fmt.Printf("claims not checked: a %d-equation target, the paper's system has %d\n", eqs, paperEqs)
		return
	}
	r.report(claims...)
}

// pipeline runs the full pipeline once on a phantom case of the run's
// size; Figures 4, 5 and 6 and the first row of every accuracy study
// read that run.
func (r *runner) pipeline() (*phantom.Case, *core.Result, error) {
	p := &r.pipe
	if !p.done {
		p.done = true
		p.c = phantom.Generate(phantom.DefaultParams(r.size))
		p.res, p.err = r.register(p.c, nil)
	}
	return p.c, p.res, p.err
}

// register runs case c through a fresh session under the pipeline's
// configuration, the defaults with the rigid stage skipped, changed by
// set when set is not nil.
func (r *runner) register(c *phantom.Case, set func(*core.Config)) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.SkipRigid = true
	if set != nil {
		set(&cfg)
	}
	sess, err := core.NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		return nil, err
	}
	return sess.Register(r.ctx, c.Intraop)
}

func (r *runner) fig4() error {
	c, res, err := r.pipeline()
	if err != nil {
		return err
	}
	fmt.Println("Match of the simulated deformation (paper Figure 4):")
	fmt.Printf("  mean |preop-aligned - intraop| at brain boundary (rigid only): %8.3f\n", res.RigidMeanAbsDiff)
	fmt.Printf("  mean |simulated     - intraop| at brain boundary (biomech):    %8.3f\n", res.MatchMeanAbsDiff)
	impr := (res.RigidMeanAbsDiff - res.MatchMeanAbsDiff) / res.RigidMeanAbsDiff * 100
	fmt.Printf("  improvement over rigid registration alone: %.1f%%\n", impr)
	if rms, rms0, err := c.TruthRMS(res.Backward); err == nil {
		fmt.Printf("  deformation field RMS error vs ground truth: %.3f mm (rigid-only baseline %.3f mm)\n", rms, rms0)
	}
	// Slice panels (a)-(d).
	k := r.size / 2
	diff, err := res.Warped.AbsDiff(c.Intraop)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		name string
		vol  *volume.Scalar
	}{
		{"fig4a_preop.pgm", c.Preop},
		{"fig4b_intraop.pgm", c.Intraop},
		{"fig4c_simulated.pgm", res.Warped},
		{"fig4d_difference.pgm", diff},
	} {
		path := filepath.Join(r.outDir, p.name)
		if err := volume.SavePGMSlice(path, p.vol, k); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	r.report(figures.Claim{
		Text: fmt.Sprintf("the biomechanical match (%.3f) is below rigid registration alone (%.3f)",
			res.MatchMeanAbsDiff, res.RigidMeanAbsDiff),
		Holds: res.MatchMeanAbsDiff < res.RigidMeanAbsDiff,
	})
	return nil
}

func (r *runner) fig5() error {
	c, res, err := r.pipeline()
	if err != nil {
		return err
	}
	// Color panel: intraop slice + deformation heat map + displacement
	// arrows (the Figure 5 rendering, as a 2D slice).
	k := r.size / 2
	lo, hi := c.Intraop.MinMax()
	im, err := render.GraySlice(c.Intraop, render.AxisZ, k, lo, hi)
	if err != nil {
		return err
	}
	if err := render.OverlayFieldMagnitude(im, res.Backward, render.AxisZ, k, 0, 0.3, 0.5); err != nil {
		return err
	}
	if err := render.DrawArrows(im, res.Backward, render.AxisZ, k, 6, 2, 1.5, render.RGB{B: 255}); err != nil {
		return err
	}
	panel := filepath.Join(r.outDir, "fig5_deformation.ppm")
	if err := im.SavePPM(panel); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", panel)
	// 3D rendering of the deformed brain surface, color-coded by
	// displacement magnitude — the paper's actual Figure 5 view.
	colors := render.DisplacementColors(res.Surface.Displacements, 0)
	cam := render.Camera{Dir: geom.V(-1, -1, -0.5), Up: geom.V(0, 0, 1)}
	im3d, err := render.RenderSurface(res.Surface.Final, colors, cam, 256, 256)
	if err != nil {
		return err
	}
	panel3d := filepath.Join(r.outDir, "fig5_surface3d.ppm")
	if err := im3d.SavePPM(panel3d); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", panel3d)
	fmt.Println("Surface displacement field (paper Figure 5 color coding):")
	fmt.Printf("  surface vertices: %d\n", len(res.Surface.Displacements))
	fmt.Printf("  mean displacement magnitude: %6.2f mm\n", res.Surface.MeanDisp)
	fmt.Printf("  max  displacement magnitude: %6.2f mm\n", res.Surface.MaxDisp)
	// Displacement histogram (the figure's color map, textualized).
	buckets := make([]int, 8)
	bw := res.Surface.MaxDisp/float64(len(buckets)) + 1e-12
	for _, d := range res.Surface.Displacements {
		b := int(d.Norm() / bw)
		if b >= len(buckets) {
			b = len(buckets) - 1
		}
		buckets[b]++
	}
	for b, n := range buckets {
		fmt.Printf("  %5.2f-%5.2f mm: %6d vertices\n", float64(b)*bw, float64(b+1)*bw, n)
	}
	return nil
}

func (r *runner) fig6() error {
	_, res, err := r.pipeline()
	if err != nil {
		return err
	}
	fmt.Print(res.Timeline())
	return nil
}

// builtFor builds the system of about eqs equations once per run;
// Figures 7, 8a and 8b share one.
func (r *runner) builtFor(eqs int) (*figures.Built, error) {
	if b, ok := r.built[eqs]; ok {
		return b, nil
	}
	fmt.Printf("building ~%d-equation biomechanical system...\n", eqs)
	b, err := figures.BuildHeadSystem(r.ctx, figures.SystemSpec{TargetEquations: eqs, Seed: 1})
	if err != nil {
		return nil, err
	}
	r.built[eqs] = b
	return b, nil
}

// scaling regenerates one scaling figure on a system of about eqs
// equations, and checks its claims when eqs is the paper's size.
func (r *runner) scaling(f figures.ScalingFigure, eqs int) error {
	b, err := r.builtFor(eqs)
	if err != nil {
		return err
	}
	fmt.Printf("system: %d equations (%d nodes, %d elements, %d constrained DOFs)\n",
		b.NumEq, b.Mesh.NumNodes(), b.Mesh.NumTets(), b.NumBC)
	rows, err := figures.ScalingStudy(r.ctx, b, f.Machine, f.CPUs, solver.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatRows(f.Title+" ("+f.Machine.Name+")", rows))
	// Speedup/efficiency summary and the effective Amdahl serial
	// fraction implied by the end-to-end curve.
	var cpus []int
	var times []float64
	for _, row := range rows {
		cpus = append(cpus, row.CPUs)
		times = append(times, row.AssembleSec+row.SolveSec)
	}
	pts, err := cluster.SpeedupCurve(cpus, times)
	if err != nil {
		return err
	}
	fmt.Print(cluster.FormatSpeedup(pts))
	if sf, err := cluster.FitAmdahl(pts); err == nil {
		fmt.Printf("effective Amdahl serial fraction: %.3f\n", sf)
	}
	if r.csvDir != "" {
		if err := writeCSV(filepath.Join(r.csvDir, sanitize(f.Title)+".csv"), rows); err != nil {
			return err
		}
	}
	r.check(eqs, f.Equations, f.Claims(rows))
	return nil
}

// writeCSV writes a figure's scaling rows to name.
func writeCSV(name string, rows []figures.ScalingRow) error {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := figures.WriteCSV(f, rows); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", name)
	return nil
}

// sanitize converts a figure title into a file-name-safe slug.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == ':' || r == ',':
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	return string(out)
}
