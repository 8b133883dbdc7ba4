package volume

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/par"
)

// Field is a dense 3D displacement field: one world-space displacement
// vector (mm) per voxel of its grid. The pipeline uses it to carry the
// volumetric deformation computed by the biomechanical simulation and
// to warp preoperative data into the intraoperative configuration.
type Field struct {
	Grid Grid
	// DX, DY, DZ hold the displacement components, one entry per voxel.
	DX, DY, DZ []float32
}

// NewField allocates a zero displacement field on grid g.
func NewField(g Grid) *Field {
	n := g.Len()
	return &Field{
		Grid: g,
		DX:   make([]float32, n),
		DY:   make([]float32, n),
		DZ:   make([]float32, n),
	}
}

// At returns the displacement at voxel (i, j, k); zero out of bounds.
func (f *Field) At(i, j, k int) geom.Vec3 {
	if !f.Grid.InBounds(i, j, k) {
		return geom.Vec3{}
	}
	idx := f.Grid.Index(i, j, k)
	return geom.V(float64(f.DX[idx]), float64(f.DY[idx]), float64(f.DZ[idx]))
}

// Set assigns the displacement at voxel (i, j, k).
func (f *Field) Set(i, j, k int, d geom.Vec3) {
	if !f.Grid.InBounds(i, j, k) {
		return
	}
	idx := f.Grid.Index(i, j, k)
	f.DX[idx] = float32(d.X)
	f.DY[idx] = float32(d.Y)
	f.DZ[idx] = float32(d.Z)
}

// SampleWorld trilinearly interpolates the displacement at world point
// p. Outside the grid the displacement is cut to zero (the deformation
// is localized to the head, well inside the field of view). The cell is
// located once and each component interpolated in it by the expression
// Scalar.SampleVoxel uses, so the result is bit for bit that of three
// scalar samples.
//
//lint:hotpath
//lint:noescape
func (f *Field) SampleWorld(p geom.Vec3) geom.Vec3 {
	g := &f.Grid
	v := g.Voxel(p)
	i, fx, okx := cellAxis(g.NX, v.X)
	j, fy, oky := cellAxis(g.NY, v.Y)
	k, fz, okz := cellAxis(g.NZ, v.Z)
	if !(okx && oky && okz) {
		return geom.Vec3{}
	}
	idx, nx, nxy := g.Index(i, j, k), g.NX, g.NX*g.NY
	var out [3]float64
	for c, d := range [3][]float32{f.DX, f.DY, f.DZ} {
		c0 := bilinear(d, idx, nx, fx, fy)
		out[c] = c0 + fz*(bilinear(d, idx+nxy, nx, fx, fy)-c0)
	}
	return geom.V(out[0], out[1], out[2])
}

// MaxMagnitude returns the largest displacement magnitude in the field.
func (f *Field) MaxMagnitude() float64 {
	maxSq := 0.0
	for i := range f.DX {
		dx, dy, dz := float64(f.DX[i]), float64(f.DY[i]), float64(f.DZ[i])
		if m := dx*dx + dy*dy + dz*dz; m > maxSq {
			maxSq = m
		}
	}
	return math.Sqrt(maxSq)
}

// MeanMagnitude returns the average displacement magnitude. When mask is
// non-nil only voxels where mask is true contribute.
func (f *Field) MeanMagnitude(mask []bool) float64 {
	sum, n := 0.0, 0
	for i := range f.DX {
		if mask != nil && !mask[i] {
			continue
		}
		dx, dy, dz := float64(f.DX[i]), float64(f.DY[i]), float64(f.DZ[i])
		sum += math.Sqrt(dx*dx + dy*dy + dz*dz)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RMSDifference returns the root-mean-square magnitude of (f - g),
// optionally restricted to mask. It returns an error on shape mismatch.
func (f *Field) RMSDifference(g *Field, mask []bool) (float64, error) {
	if !f.Grid.SameShape(g.Grid) {
		return 0, fmt.Errorf("volume: field shape mismatch %v vs %v", f.Grid, g.Grid)
	}
	sum, n := 0.0, 0
	for i := range f.DX {
		if mask != nil && !mask[i] {
			continue
		}
		dx := float64(f.DX[i]) - float64(g.DX[i])
		dy := float64(f.DY[i]) - float64(g.DY[i])
		dz := float64(f.DZ[i]) - float64(g.DZ[i])
		sum += dx*dx + dy*dy + dz*dz
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return math.Sqrt(sum / float64(n)), nil
}

// WarpScalar resamples src through the deformation field: the output
// voxel at world point p takes the value src(p + f(p)). This is the
// standard backward-warp convention, so f should map points of the
// *deformed* (target) configuration to their preimage displacements.
// The output is defined on the field's grid; its z-planes are split
// into slabs, one per core.
func (f *Field) WarpScalar(src *Scalar) *Scalar {
	out := NewScalar(f.Grid)
	g := f.Grid
	pt := par.Slabs(g.NZ)
	pt.ForEachRank(func(s int) {
		lo, hi := pt.Range(s)
		for k := lo; k < hi; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					p := g.World(i, j, k)
					idx := g.Index(i, j, k)
					q := p.Add(geom.V(float64(f.DX[idx]), float64(f.DY[idx]), float64(f.DZ[idx])))
					out.Data[idx] = float32(src.SampleWorld(q))
				}
			}
		}
	})
	return out
}

// WarpLabels resamples a label volume through the field with nearest-
// neighbor interpolation (labels must not be blended).
func (f *Field) WarpLabels(src *Labels) *Labels {
	out := NewLabels(f.Grid)
	g := f.Grid
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				p := g.World(i, j, k)
				idx := g.Index(i, j, k)
				q := p.Add(geom.V(float64(f.DX[idx]), float64(f.DY[idx]), float64(f.DZ[idx])))
				out.Data[idx] = src.AtWorld(q)
			}
		}
	}
	return out
}

// Invert approximates the inverse of a displacement field by
// fixed-point iteration: given a forward field u (p moves to p + u(p)),
// the returned field v satisfies v(q) ~= -u(q + v(q)), so that warping
// with v undoes the motion of u. For the small, smooth deformations of
// intraoperative brain shift a handful of iterations converge to
// sub-voxel accuracy. A voxel stops iterating once an iterate repeats
// (the rest would repeat it too), which where the field is zero — most
// of the volume — is at once; the result is that of running them all.
// Each voxel iterates alone, so the z-planes are split into slabs, one
// per core.
func (f *Field) Invert(iterations int) *Field {
	if iterations <= 0 {
		iterations = 5
	}
	g := f.Grid
	out := NewField(g)
	pt := par.Slabs(g.NZ)
	pt.ForEachRank(func(s int) {
		lo, hi := pt.Range(s)
		for k := lo; k < hi; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					q := g.World(i, j, k)
					var v geom.Vec3
					for it := 0; it < iterations; it++ {
						next := f.SampleWorld(q.Add(v)).Scale(-1)
						// == takes -0 for +0, but no component of q is -0, so q+v
						// is the same point either way and so is every later iterate.
						fixed := next == v
						v = next
						if fixed {
							break
						}
					}
					out.Set(i, j, k, v)
				}
			}
		}
	})
	return out
}
