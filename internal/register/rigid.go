package register

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/transform"
	"repro/internal/volume"
)

// Options configures the rigid MI registration.
type Options struct {
	// Bins is the joint histogram size per axis.
	Bins int
	// Levels are the pyramid downsampling factors, coarse to fine,
	// e.g. {4, 2, 1}.
	Levels []int
	// RotStep and TransStep are initial optimizer steps in radians and
	// millimetres.
	RotStep, TransStep float64
	// MaxIter bounds Powell sweeps per pyramid level.
	MaxIter int
	// Threshold excludes air-air sample pairs from the histogram.
	Threshold float64
	// MaxRot and MaxTrans bound the search around the initial transform
	// (radians / mm). Intraoperative scans of the same patient are
	// nearly aligned already, and the bound keeps the optimizer out of
	// the spurious far-field maxima of histogram-based MI.
	MaxRot   float64
	MaxTrans float64
}

// DefaultOptions returns registration options suitable for head MRI.
func DefaultOptions() Options {
	return Options{
		Bins:      32,
		Levels:    []int{4, 2},
		RotStep:   0.02,
		TransStep: 2.0,
		MaxIter:   8,
		Threshold: 10,
		MaxRot:    0.35,
		MaxTrans:  40,
	}
}

// Result reports registration diagnostics. InitialMI and FinalMI are
// normalized mutual information evaluated on the finest pyramid level
// at the initial and final transforms, so they are directly comparable.
type Result struct {
	Transform  transform.Rigid
	FinalMI    float64
	InitialMI  float64
	Evals      int
	Elapsed    time.Duration
	LevelStats []LevelStat
}

// LevelStat records per-pyramid-level progress.
type LevelStat struct {
	Factor  int
	MI      float64
	Evals   int
	Elapsed time.Duration
}

// CenterOfMassInit returns a translation-only initial transform that
// aligns the intensity centroid of moving onto that of fixed. Voxels at
// or below threshold are ignored. This provides a capture-range-safe
// starting point for Align.
func CenterOfMassInit(fixed, moving *volume.Scalar, threshold float64) transform.Rigid {
	comF := intensityCentroid(fixed, threshold)
	comM := intensityCentroid(moving, threshold)
	r := transform.Identity(fixed.Grid.Center())
	d := comF.Sub(comM)
	r.TX, r.TY, r.TZ = d.X, d.Y, d.Z
	return r
}

func intensityCentroid(s *volume.Scalar, threshold float64) geom.Vec3 {
	var sum geom.Vec3
	total := 0.0
	g := s.Grid
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				v := float64(s.Data[g.Index(i, j, k)])
				if v <= threshold {
					continue
				}
				sum = sum.Add(g.World(i, j, k).Scale(v))
				total += v
			}
		}
	}
	if total == 0 {
		return g.Center()
	}
	return sum.Scale(1 / total)
}

// AlignContext estimates the rigid transform r maximizing the mutual
// information between fixed and the moving volume moved by r, i.e.
// after alignment ResampleScalar(moving, r, fixed.Grid) matches fixed.
// The search starts from init (commonly the identity about the fixed
// volume center). The context is polled between Powell line
// maximizations; on cancellation the partial diagnostics are returned
// together with ctx.Err().
func AlignContext(ctx context.Context, fixed, moving *volume.Scalar, init transform.Rigid, opts Options) (Result, error) {
	if err := fixed.Grid.Validate(); err != nil {
		return Result{}, fmt.Errorf("register: fixed: %w", err)
	}
	if err := moving.Grid.Validate(); err != nil {
		return Result{}, fmt.Errorf("register: moving: %w", err)
	}
	if len(opts.Levels) == 0 {
		opts.Levels = []int{1}
	}
	start := time.Now()
	res := Result{Transform: init}
	cur := init

	// Finest-level metric for comparable before/after diagnostics.
	finest := opts.Levels[len(opts.Levels)-1]
	fineMetric := NewMIMetric(fixed.Downsample(finest), moving.Downsample(finest))
	fineMetric.Threshold = opts.Threshold
	evalFine := func(r transform.Rigid) float64 {
		inv := r.Inverse()
		return fineMetric.EvaluateNMI(inv.Apply)
	}
	res.InitialMI = evalFine(init)
	stop := func() bool { return ctx.Err() != nil }

	for li, factor := range opts.Levels {
		if err := ctx.Err(); err != nil {
			res.Transform = cur
			res.Elapsed = time.Since(start)
			return res, err
		}
		lvlStart := time.Now()
		f := fixed.Downsample(factor)
		m := moving.Downsample(factor)
		metric := NewMIMetric(f, m)
		bins := opts.Bins
		if bins <= 0 {
			bins = 32
		}
		// Coarse levels have far fewer samples; shrink the histogram so
		// the MI estimate stays statistically stable.
		if factor > 1 {
			bins /= factor
			if bins < 8 {
				bins = 8
			}
		}
		metric.Bins = bins
		metric.hist = NewHistogram2D(bins,
			metric.hist.MinA, metric.hist.MaxA, metric.hist.MinB, metric.hist.MaxB)
		metric.Threshold = opts.Threshold

		initP := init.Params()
		objective := func(p []float64) float64 {
			if opts.MaxRot > 0 || opts.MaxTrans > 0 {
				for i := 0; i < 3; i++ {
					if opts.MaxRot > 0 && math.Abs(p[i]-initP[i]) > opts.MaxRot {
						return -1
					}
					if opts.MaxTrans > 0 && math.Abs(p[i+3]-initP[i+3]) > opts.MaxTrans {
						return -1
					}
				}
			}
			r := cur.WithParams(p)
			inv := r.Inverse()
			return metric.EvaluateNMI(inv.Apply)
		}
		// Scale steps with the pyramid level: coarse levels take larger
		// steps.
		scale := float64(factor)
		if li == 0 {
			// Translation-only pre-alignment on the coarsest level: the
			// translational basin is wide and resolving it first keeps
			// the rotation search near its (small) optimum.
			pwT := NewPowell([]float64{
				opts.TransStep * scale, opts.TransStep * scale, opts.TransStep * scale,
			})
			pwT.MaxIter = opts.MaxIter
			pwT.Stop = stop
			bestT, _ := pwT.Maximize(func(q []float64) float64 {
				p := cur.Params()
				p[3], p[4], p[5] = q[0], q[1], q[2]
				return objective(p)
			}, []float64{cur.TX, cur.TY, cur.TZ})
			cur.TX, cur.TY, cur.TZ = bestT[0], bestT[1], bestT[2]
			res.Evals += pwT.Evals
		}
		pw := NewPowell([]float64{
			opts.RotStep * scale, opts.RotStep * scale, opts.RotStep * scale,
			opts.TransStep * scale, opts.TransStep * scale, opts.TransStep * scale,
		})
		pw.MaxIter = opts.MaxIter
		pw.Stop = stop
		// Search translations before rotations: their capture range is
		// larger and resolving them first keeps the rotation search out
		// of spurious local maxima.
		pw.Order = []int{3, 4, 5, 0, 1, 2}
		best, bestMI := pw.Maximize(objective, cur.Params())
		cur = cur.WithParams(best)
		res.LevelStats = append(res.LevelStats, LevelStat{
			Factor:  factor,
			MI:      bestMI,
			Evals:   pw.Evals,
			Elapsed: time.Since(lvlStart),
		})
		res.Evals += pw.Evals
	}
	res.Transform = cur
	res.FinalMI = evalFine(cur)
	res.Elapsed = time.Since(start)
	return res, ctx.Err()
}
