// Quickstart: the minimal end-to-end use of the library.
//
// It generates a small synthetic neurosurgery case, runs the full
// intraoperative registration pipeline (classification, surface
// correspondence, biomechanical FEM simulation, resampling), and prints
// the stage timeline and match quality.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/phantom"
)

func main() {
	// 1. A synthetic neurosurgery case: preoperative scan +
	//    segmentation, and an intraoperative scan acquired after tumor
	//    resection caused the brain to shift.
	c := phantom.Generate(phantom.DefaultParams(48))

	// 2. A surgical session on the preoperative data, with default
	//    settings. SkipRigid because phantom scan pairs already share
	//    one scanner frame; with real scans the MI rigid registration
	//    stage would align them first.
	cfg := core.DefaultConfig()
	cfg.SkipRigid = true
	sess, err := core.NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Register the intraoperative scan. The context bounds the run:
	//    give it a deadline and an expiry during the solve degrades to
	//    the rigid-only alignment.
	res, err := sess.Register(context.Background(), c.Intraop)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Results: the timeline of the paper's Figure 6, and the match
	//    quality of its Figure 4.
	fmt.Print(res.Timeline())
	fmt.Println()
	fmt.Printf("mesh: %d nodes, %d tetrahedra\n", res.Mesh.NumNodes(), res.Mesh.NumTets())
	fmt.Printf("FEM solve: %v\n", res.SolveStats)
	fmt.Printf("brain surface sank up to %.1f mm\n", res.Surface.MaxDisp)
	fmt.Printf("match at brain boundary: rigid-only %.2f -> biomechanical %.2f (mean |intensity diff|)\n",
		res.RigidMeanAbsDiff, res.MatchMeanAbsDiff)

	// 5. res.Warped now holds the preoperative scan deformed into the
	//    intraoperative configuration; res.Backward is the dense
	//    deformation field, ready to warp any other preoperative data
	//    (fMRI, PET, ...) into the same frame.
	fmt.Printf("deformation field: peak %.2f mm\n", res.Backward.MaxMagnitude())
}
