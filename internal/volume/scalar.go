package volume

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/par"
)

// Scalar is a single-channel 3D image (e.g. an MR intensity volume),
// stored as float32 to keep clinical-size volumes (256x256x60 and up)
// memory-friendly. All arithmetic is done in float64.
type Scalar struct {
	Grid Grid
	Data []float32
}

// NewScalar allocates a zero-filled scalar volume on grid g.
func NewScalar(g Grid) *Scalar {
	return &Scalar{Grid: g, Data: make([]float32, g.Len())}
}

// At returns the voxel value at (i, j, k). Out-of-bounds reads return 0,
// the conventional background value for MR data.
func (s *Scalar) At(i, j, k int) float64 {
	if !s.Grid.InBounds(i, j, k) {
		return 0
	}
	return float64(s.Data[s.Grid.Index(i, j, k)])
}

// Set assigns the voxel value at (i, j, k). Out-of-bounds writes are
// ignored.
func (s *Scalar) Set(i, j, k int, v float64) {
	if !s.Grid.InBounds(i, j, k) {
		return
	}
	s.Data[s.Grid.Index(i, j, k)] = float32(v)
}

// Fill sets every voxel to v.
func (s *Scalar) Fill(v float64) {
	f := float32(v)
	for i := range s.Data {
		s.Data[i] = f
	}
}

// Clone returns a deep copy of s.
func (s *Scalar) Clone() *Scalar {
	c := &Scalar{Grid: s.Grid, Data: make([]float32, len(s.Data))}
	copy(c.Data, s.Data)
	return c
}

// SampleVoxel trilinearly interpolates the volume at continuous voxel
// coordinates (x, y, z). Samples outside the grid return 0.
func (s *Scalar) SampleVoxel(x, y, z float64) float64 {
	g := &s.Grid
	i, fx, okx := cellAxis(g.NX, x)
	j, fy, oky := cellAxis(g.NY, y)
	k, fz, okz := cellAxis(g.NZ, z)
	if !(okx && oky && okz) {
		return 0
	}
	idx := g.Index(i, j, k)
	c0 := bilinear(s.Data, idx, g.NX, fx, fy)
	return c0 + fz*(bilinear(s.Data, idx+g.NX*g.NY, g.NX, fx, fy)-c0)
}

// cellAxis locates coordinate x on an axis of n samples for linear
// interpolation: the lower sample i and the weight f of sample i+1;
// ok is false outside [0, n-1]. The lower sample is clamped so that a
// coordinate exactly on the last plane interpolates within bounds.
func cellAxis(n int, x float64) (i int, f float64, ok bool) {
	if x < 0 || x > float64(n-1) {
		return 0, 0, false
	}
	i = max(min(int(x), n-2), 0)
	return i, x - float64(i), true
}

// bilinear interpolates in the 2x2 face of one z-plane whose low corner
// is d[o], nx being the row stride: along x on the two x-edges, then
// along y. Trilinear sampling is two faces and a blend along z; scalar
// volumes and displacement fields both inline this, so they round
// identically.
func bilinear(d []float32, o, nx int, fx, fy float64) float64 {
	c0 := float64(d[o]) + fx*(float64(d[o+1])-float64(d[o]))
	c1 := float64(d[o+nx]) + fx*(float64(d[o+nx+1])-float64(d[o+nx]))
	return c0 + fy*(c1-c0)
}

// SampleVoxelPoint trilinearly interpolates the volume at a continuous
// voxel-space point.
func (s *Scalar) SampleVoxelPoint(p geom.VoxelPoint) float64 {
	return s.SampleVoxel(p.X, p.Y, p.Z)
}

// SampleWorld trilinearly interpolates the volume at world point p (mm).
func (s *Scalar) SampleWorld(p geom.Vec3) float64 {
	return s.SampleVoxelPoint(s.Grid.Voxel(p))
}

// GradientWorld returns the central-difference image gradient at world
// point p, in intensity units per millimetre.
func (s *Scalar) GradientWorld(p geom.Vec3) geom.Vec3 {
	hx, hy, hz := s.Grid.Spacing.X, s.Grid.Spacing.Y, s.Grid.Spacing.Z
	return geom.V(
		(s.SampleWorld(p.Add(geom.V(hx, 0, 0)))-s.SampleWorld(p.Sub(geom.V(hx, 0, 0))))/(2*hx),
		(s.SampleWorld(p.Add(geom.V(0, hy, 0)))-s.SampleWorld(p.Sub(geom.V(0, hy, 0))))/(2*hy),
		(s.SampleWorld(p.Add(geom.V(0, 0, hz)))-s.SampleWorld(p.Sub(geom.V(0, 0, hz))))/(2*hz),
	)
}

// MinMax returns the minimum and maximum voxel values. An empty volume
// returns (0, 0).
func (s *Scalar) MinMax() (lo, hi float64) {
	if len(s.Data) == 0 {
		return 0, 0
	}
	lo, hi = float64(s.Data[0]), float64(s.Data[0])
	for _, v := range s.Data {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi
}

// Stats summarizes a scalar volume: mean, standard deviation, min, max.
type Stats struct {
	Mean, Std, Min, Max float64
	N                   int
}

// ComputeStats returns summary statistics for all voxels of s. When mask
// is non-nil, only voxels where mask is true contribute.
func (s *Scalar) ComputeStats(mask []bool) Stats {
	var st Stats
	st.Min = math.Inf(1)
	st.Max = math.Inf(-1)
	var sum, sumSq float64
	for i, v := range s.Data {
		if mask != nil && !mask[i] {
			continue
		}
		f := float64(v)
		sum += f
		sumSq += f * f
		if f < st.Min {
			st.Min = f
		}
		if f > st.Max {
			st.Max = f
		}
		st.N++
	}
	if st.N == 0 {
		return Stats{}
	}
	st.Mean = sum / float64(st.N)
	variance := sumSq/float64(st.N) - st.Mean*st.Mean
	if variance > 0 {
		st.Std = math.Sqrt(variance)
	}
	return st
}

// AbsDiff returns a volume holding |s - t| voxelwise. It returns an
// error when the shapes differ.
func (s *Scalar) AbsDiff(t *Scalar) (*Scalar, error) {
	if !s.Grid.SameShape(t.Grid) {
		return nil, fmt.Errorf("volume: shape mismatch %v vs %v", s.Grid, t.Grid)
	}
	out := NewScalar(s.Grid)
	for i := range s.Data {
		d := float64(s.Data[i]) - float64(t.Data[i])
		out.Data[i] = float32(math.Abs(d))
	}
	return out, nil
}

// SmoothGaussian returns a separably Gaussian-smoothed copy of s with
// standard deviation sigma (in voxels). A sigma of 0 returns a clone.
func (s *Scalar) SmoothGaussian(sigma float64) *Scalar {
	if sigma <= 0 {
		return s.Clone()
	}
	radius := int(math.Ceil(3 * sigma))
	kernel := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range kernel {
		x := float64(i - radius)
		kernel[i] = math.Exp(-x * x / (2 * sigma * sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}

	g := s.Grid
	src := s.Clone()
	dst := NewScalar(g)
	// Pass along x.
	convolveAxis(src, dst, kernel, radius, 0)
	// Pass along y.
	convolveAxis(dst, src, kernel, radius, 1)
	// Pass along z.
	convolveAxis(src, dst, kernel, radius, 2)
	return dst
}

// convolveAxis convolves src with kernel along the given axis (0=x, 1=y,
// 2=z) writing to dst, with clamp-to-edge boundary handling. The
// z-planes of dst are split into slabs, one per core; src and dst are
// distinct volumes, so a slab reads only what no slab writes.
func convolveAxis(src, dst *Scalar, kernel []float64, radius, axis int) {
	g := src.Grid
	n := [3]int{g.NX, g.NY, g.NZ}[axis]
	stride := [3]int{1, g.NX, g.NX * g.NY}[axis]
	pt := par.Slabs(g.NZ)
	pt.ForEachRank(func(s int) {
		lo, hi := pt.Range(s)
		for k := lo; k < hi; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					idx := g.Index(i, j, k)
					pos := [3]int{i, j, k}[axis]
					line := idx - pos*stride
					acc := 0.0
					if pos >= radius && pos+radius < n {
						// No tap is clamped: the same sum, without the clamps.
						taps := src.Data[line+(pos-radius)*stride:]
						for t, w := range kernel {
							acc += w * float64(taps[t*stride])
						}
					} else {
						for t := -radius; t <= radius; t++ {
							acc += kernel[t+radius] * float64(src.Data[line+min(max(pos+t, 0), n-1)*stride])
						}
					}
					dst.Data[idx] = float32(acc)
				}
			}
		}
	})
}
