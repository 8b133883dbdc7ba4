// Brainshift: a neurosurgery case study with quantitative validation.
//
// The paper validated its two clinical cases visually (Figures 4 and
// 5). With a synthetic case the ground-truth deformation is known, so
// this example measures what the paper could only show: the recovered
// volumetric deformation field is compared voxel-by-voxel against the
// truth, for a sweep of brain-shift magnitudes, against the rigid-only
// baseline.
//
//	go run ./examples/brainshift
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/phantom"
)

func main() {
	fmt.Println("Brain shift recovery vs ground truth (48^3 phantom, tumor resection case)")
	fmt.Printf("%10s %14s %14s %14s %12s\n",
		"shift(mm)", "rigid RMS(mm)", "biomech RMS(mm)", "error reduced", "surf max(mm)")

	for _, shift := range []float64{2, 4, 6, 8} {
		p := phantom.DefaultParams(48)
		p.ShiftMagnitude = shift
		c := phantom.Generate(p)

		cfg := core.DefaultConfig()
		cfg.SkipRigid = true
		sess, err := core.NewSession(cfg, c.Preop, c.PreopLabels)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Register(context.Background(), c.Intraop)
		if err != nil {
			log.Fatal(err)
		}

		// RMS error of the recovered field vs truth, inside the brain;
		// the rigid-only baseline is the zero field.
		rms, rms0, err := c.TruthRMS(res.Backward)
		if err != nil {
			log.Fatal(err)
		}
		reduction := (rms0 - rms) / rms0 * 100
		fmt.Printf("%10.1f %14.3f %14.3f %13.1f%% %12.2f\n",
			shift, rms0, rms, reduction, res.Surface.MaxDisp)
	}

	fmt.Println()
	fmt.Println("The biomechanical simulation recovers most of the deformation the")
	fmt.Println("rigid registration cannot express; residual error reflects the")
	fmt.Println("homogeneous material model (see examples/materials for the")
	fmt.Println("heterogeneous refinement the paper proposes).")
}
