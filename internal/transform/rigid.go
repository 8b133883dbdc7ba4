// Package transform provides rigid-body transforms and volume
// resampling. The pipeline's first intraoperative step aligns each new
// scan to the preoperative coordinate frame with a 6-degree-of-freedom
// rigid transform (3 rotations, 3 translations) estimated by mutual
// information maximization (package register); this package supplies the
// parameterization and the resampling operators.
package transform

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/volume"
)

// Rigid is a 6-DOF rigid-body transform: rotation by Euler angles
// (RX, RY, RZ radians, applied as Rz*Ry*Rx) about a center point,
// followed by translation (TX, TY, TZ mm).
//
// Rotating about a center (typically the volume center) rather than the
// world origin keeps the rotation and translation parameters well
// conditioned for optimization.
type Rigid struct {
	RX, RY, RZ float64 // Euler angles, radians
	TX, TY, TZ float64 // translation, mm
	Center     geom.Vec3
}

// Identity returns the identity transform about the given center.
func Identity(center geom.Vec3) Rigid {
	return Rigid{Center: center}
}

// Params returns the six free parameters as a slice in the order
// rx, ry, rz, tx, ty, tz.
func (r Rigid) Params() []float64 {
	return []float64{r.RX, r.RY, r.RZ, r.TX, r.TY, r.TZ}
}

// WithParams returns a copy of r with the six free parameters replaced.
// It panics if p does not have length 6.
func (r Rigid) WithParams(p []float64) Rigid {
	if len(p) != 6 {
		panic(fmt.Sprintf("transform: want 6 params, got %d", len(p)))
	}
	r.RX, r.RY, r.RZ = p[0], p[1], p[2]
	r.TX, r.TY, r.TZ = p[3], p[4], p[5]
	return r
}

// Matrix returns the homogeneous matrix of the transform.
func (r Rigid) Matrix() geom.Mat4 {
	rot := geom.EulerZYX(r.RX, r.RY, r.RZ)
	// p' = R(p - c) + c + t
	t := r.Center.Sub(rot.MulVec(r.Center)).Add(geom.V(r.TX, r.TY, r.TZ))
	return geom.FromRT(rot, t)
}

// Apply transforms the point p.
func (r Rigid) Apply(p geom.Vec3) geom.Vec3 {
	rot := geom.EulerZYX(r.RX, r.RY, r.RZ)
	return rot.MulVec(p.Sub(r.Center)).Add(r.Center).Add(geom.V(r.TX, r.TY, r.TZ))
}

// Inverse returns the exact inverse transform, expressed with the same
// center. Note the inverse of an Euler-parameterized rotation is
// returned as a matrix-backed transform; use Matrix() for composition.
func (r Rigid) Inverse() geom.Mat4 {
	m, err := r.Matrix().Inverse()
	if err != nil {
		// A rigid matrix is always invertible; reaching here indicates
		// corrupted parameters (NaN). Return identity to stay total.
		return geom.Identity4()
	}
	return m
}

// String implements fmt.Stringer.
func (r Rigid) String() string {
	return fmt.Sprintf("rot=(%.4f, %.4f, %.4f) rad, trans=(%.2f, %.2f, %.2f) mm",
		r.RX, r.RY, r.RZ, r.TX, r.TY, r.TZ)
}

// MaxDisplacement returns the largest displacement the transform induces
// on the corners of the given grid — a conservative measure of how far
// the transform moves the volume.
func (r Rigid) MaxDisplacement(g volume.Grid) float64 {
	maxD := 0.0
	for _, ci := range []int{0, g.NX - 1} {
		for _, cj := range []int{0, g.NY - 1} {
			for _, ck := range []int{0, g.NZ - 1} {
				p := g.WorldOf(geom.Vox(ci, cj, ck))
				if d := r.Apply(p).Dist(p); d > maxD {
					maxD = d
				}
			}
		}
	}
	return maxD
}

// ResampleScalar resamples src through the inverse of the transform so
// that the output volume (on grid out) shows src as if it had been moved
// by r: out(p) = src(r^{-1}(p)). The z-planes of out are split into
// slabs, one per core.
func ResampleScalar(src *volume.Scalar, r Rigid, out volume.Grid) *volume.Scalar {
	inv := r.Inverse()
	dst := volume.NewScalar(out)
	pt := par.Slabs(out.NZ)
	pt.ForEachRank(func(s int) {
		lo, hi := pt.Range(s)
		for k := lo; k < hi; k++ {
			for j := 0; j < out.NY; j++ {
				for i := 0; i < out.NX; i++ {
					p := out.World(i, j, k)
					dst.Data[out.Index(i, j, k)] = float32(src.SampleWorld(inv.Apply(p)))
				}
			}
		}
	})
	return dst
}

// ResampleLabels nearest-neighbor resamples a label volume through the
// inverse of the transform, over slabs of z-planes like ResampleScalar.
func ResampleLabels(src *volume.Labels, r Rigid, out volume.Grid) *volume.Labels {
	inv := r.Inverse()
	dst := volume.NewLabels(out)
	pt := par.Slabs(out.NZ)
	pt.ForEachRank(func(s int) {
		lo, hi := pt.Range(s)
		for k := lo; k < hi; k++ {
			for j := 0; j < out.NY; j++ {
				for i := 0; i < out.NX; i++ {
					p := out.World(i, j, k)
					dst.Data[out.Index(i, j, k)] = src.AtWorld(inv.Apply(p))
				}
			}
		}
	})
	return dst
}
