// Command benchfig regenerates every table and figure of the paper's
// evaluation section as text tables (and PGM slice images for the
// Figure 4 panels):
//
//	benchfig -fig 3    Deep Flow node specification table
//	benchfig -fig 4    match-quality metrics + slice images (Fig 4a-d)
//	benchfig -fig 5    surface displacement statistics (Fig 5 color map)
//	benchfig -fig 6    pipeline stage timeline (Fig 6)
//	benchfig -fig 7    77,511-eq scaling on the Deep Flow cluster
//	benchfig -fig 8a   77,511-eq scaling on the Ultra HPC 6000 SMP
//	benchfig -fig 8b   77,511-eq scaling on the 2x Ultra 80 pair
//	benchfig -fig 9    253,308-eq scaling on the Ultra HPC 6000
//	benchfig -fig all  everything
//
// Absolute times for figures 7-9 come from the calibrated machine
// models driven by measured per-rank work; see DESIGN.md.
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
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,5,6,7,8a,8b,9,all")
	eqs7 := flag.Int("eqs", 77511, "target equations for figures 7/8")
	eqs9 := flag.Int("eqs9", 253308, "target equations for figure 9")
	size := flag.Int("size", 48, "phantom grid size for figures 4-6")
	outDir := flag.String("out", ".", "output directory for slice images")
	quick := flag.Bool("quick", false, "shrink systems ~10x for a fast smoke run")
	csvDir := flag.String("csv", "", "directory to write per-figure scaling CSVs (empty = none)")
	flag.Parse()
	csvOut = *csvDir

	if *quick {
		*eqs7 /= 10
		*eqs9 /= 10
	}

	ctx := context.Background()
	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		fmt.Printf("=== Figure %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("3", func() error {
		fmt.Print(cluster.Fig3Table())
		return nil
	})
	run("4", func() error { return fig4(ctx, *size, *outDir) })
	run("5", func() error { return fig5(ctx, *size, *outDir) })
	run("6", func() error { return fig6(ctx, *size) })
	run("7", func() error {
		return scaling(ctx, "Figure 7: Deep Flow cluster", *eqs7, cluster.DeepFlow(),
			[]int{1, 2, 4, 6, 8, 10, 12, 14, 16})
	})
	run("8a", func() error {
		return scaling(ctx, "Figure 8a: Sun Ultra HPC 6000 SMP", *eqs7, cluster.UltraHPC6000(),
			[]int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20})
	})
	run("8b", func() error {
		return scaling(ctx, "Figure 8b: 2x Sun Ultra 80 + Fast Ethernet", *eqs7, cluster.Ultra80Pair(),
			[]int{1, 2, 3, 4, 5, 6, 7, 8})
	})
	run("9", func() error {
		return scaling(ctx, "Figure 9: 253,308 equations on Ultra 6000", *eqs9, cluster.UltraHPC6000(),
			[]int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20})
	})
}

// runPipeline executes the full pipeline on a phantom case.
func runPipeline(ctx context.Context, size int) (*phantom.Case, *core.Result, error) {
	p := phantom.DefaultParams(size)
	c := phantom.Generate(p)
	cfg := core.DefaultConfig()
	cfg.SkipRigid = true
	sess, err := core.NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		return nil, nil, err
	}
	res, err := sess.Register(ctx, c.Intraop)
	return c, res, err
}

func fig4(ctx context.Context, size int, outDir string) error {
	c, res, err := runPipeline(ctx, size)
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
	k := size / 2
	diff, err := res.Warped.AbsDiff(c.Intraop)
	if err != nil {
		return err
	}
	panels := map[string]*volume.Scalar{
		"fig4a_preop.pgm":      c.Preop,
		"fig4b_intraop.pgm":    c.Intraop,
		"fig4c_simulated.pgm":  res.Warped,
		"fig4d_difference.pgm": diff,
	}
	for name, vol := range panels {
		path := filepath.Join(outDir, name)
		if err := volume.SavePGMSlice(path, vol, k); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	return nil
}

func fig5(ctx context.Context, size int, outDir string) error {
	c, res, err := runPipeline(ctx, size)
	if err != nil {
		return err
	}
	// Color panel: intraop slice + deformation heat map + displacement
	// arrows (the Figure 5 rendering, as a 2D slice).
	k := size / 2
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
	panel := filepath.Join(outDir, "fig5_deformation.ppm")
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
	panel3d := filepath.Join(outDir, "fig5_surface3d.ppm")
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

func fig6(ctx context.Context, size int) error {
	_, res, err := runPipeline(ctx, size)
	if err != nil {
		return err
	}
	fmt.Print(res.Timeline())
	return nil
}

// builtCache shares one system build across figures 7, 8a and 8b.
var builtCache = map[int]*figures.Built{}

// csvOut, when non-empty, receives per-figure scaling CSVs.
var csvOut string

func builtFor(ctx context.Context, eqs int) (*figures.Built, error) {
	if b, ok := builtCache[eqs]; ok {
		return b, nil
	}
	fmt.Printf("building ~%d-equation biomechanical system...\n", eqs)
	b, err := figures.BuildHeadSystem(ctx, figures.SystemSpec{TargetEquations: eqs, Seed: 1})
	if err != nil {
		return nil, err
	}
	builtCache[eqs] = b
	return b, nil
}

func scaling(ctx context.Context, title string, eqs int, mach cluster.Machine, cpus []int) error {
	b, err := builtFor(ctx, eqs)
	if err != nil {
		return err
	}
	fmt.Printf("system: %d equations (%d nodes, %d elements, %d constrained DOFs)\n",
		b.NumEq, b.Mesh.NumNodes(), b.Mesh.NumTets(), b.NumBC)
	rows, err := figures.ScalingStudy(ctx, b, mach, cpus, solver.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Print(figures.FormatRows(title+" ("+mach.Name+")", rows))
	// Speedup/efficiency summary and the effective Amdahl serial
	// fraction implied by the end-to-end curve.
	var cpusL []int
	var times []float64
	for _, r := range rows {
		cpusL = append(cpusL, r.CPUs)
		times = append(times, r.AssembleSec+r.SolveSec)
	}
	pts, err := cluster.SpeedupCurve(cpusL, times)
	if err != nil {
		return err
	}
	fmt.Print(cluster.FormatSpeedup(pts))
	if sf, err := cluster.FitAmdahl(pts); err == nil {
		fmt.Printf("effective Amdahl serial fraction: %.3f\n", sf)
	}
	if csvOut != "" {
		if err := os.MkdirAll(csvOut, 0o755); err != nil {
			return err
		}
		name := filepath.Join(csvOut, sanitize(title)+".csv")
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
	}
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
