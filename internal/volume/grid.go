// Package volume implements the 3D image substrate of the pipeline:
// scalar (MR intensity) volumes, label (segmentation) volumes, dense
// displacement fields, trilinear interpolation, gradients, and
// resampling under rigid transforms and deformation fields.
//
// Volumes follow the medical-imaging convention of an anisotropic
// regular grid: integer voxel indices (i, j, k) map to world millimetre
// coordinates through a per-volume spacing and origin. All geometric
// algorithms in the pipeline (registration, meshing, FEM) operate in
// world coordinates, so that volumes of different resolution compose
// correctly.
package volume

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Grid describes the geometry of a regular 3D sampling lattice: its
// dimensions in voxels, the physical size of each voxel (mm), and the
// world coordinates of the center of voxel (0, 0, 0).
type Grid struct {
	NX, NY, NZ int
	Spacing    geom.Vec3
	Origin     geom.Vec3
}

// NewGrid returns an isotropic grid with the given dimensions and
// voxel size, origin at zero.
func NewGrid(nx, ny, nz int, spacing float64) Grid {
	return Grid{
		NX: nx, NY: ny, NZ: nz,
		Spacing: geom.V(spacing, spacing, spacing),
	}
}

// Len returns the number of voxels in the grid.
func (g Grid) Len() int { return g.NX * g.NY * g.NZ }

// Index returns the linear index of voxel (i, j, k). The x index varies
// fastest (C order with z slowest), matching the slice-by-slice layout
// of MR acquisitions.
func (g Grid) Index(i, j, k int) int { return (k*g.NY+j)*g.NX + i }

// Coords returns the (i, j, k) voxel coordinates of linear index idx.
func (g Grid) Coords(idx int) (i, j, k int) {
	i = idx % g.NX
	j = (idx / g.NX) % g.NY
	k = idx / (g.NX * g.NY)
	return
}

// InBounds reports whether (i, j, k) addresses a voxel of the grid.
func (g Grid) InBounds(i, j, k int) bool {
	return i >= 0 && i < g.NX && j >= 0 && j < g.NY && k >= 0 && k < g.NZ
}

// World returns the world coordinates (mm) of the center of voxel
// (i, j, k).
func (g Grid) World(i, j, k int) geom.Vec3 {
	return geom.V(
		g.Origin.X+float64(i)*g.Spacing.X,
		g.Origin.Y+float64(j)*g.Spacing.Y,
		g.Origin.Z+float64(k)*g.Spacing.Z,
	)
}

// WorldOf returns the world coordinates (mm) of the center of voxel v.
func (g Grid) WorldOf(v geom.Voxel) geom.Vec3 {
	return g.World(v.I, v.J, v.K)
}

// Voxel returns the continuous voxel-space coordinates of world point
// p (mm). The result is fractional: feed it to Floor/Round to obtain a
// discrete index.
func (g Grid) Voxel(p geom.Vec3) geom.VoxelPoint {
	return geom.VoxelPoint{
		X: (p.X - g.Origin.X) / g.Spacing.X,
		Y: (p.Y - g.Origin.Y) / g.Spacing.Y,
		Z: (p.Z - g.Origin.Z) / g.Spacing.Z,
	}
}

// IndexOf returns the linear index of voxel v.
func (g Grid) IndexOf(v geom.Voxel) int { return g.Index(v.I, v.J, v.K) }

// Contains reports whether voxel v addresses a voxel of the grid.
func (g Grid) Contains(v geom.Voxel) bool { return g.InBounds(v.I, v.J, v.K) }

// Extent returns the world-space size of the grid (from the center of
// the first voxel to the center of the last, plus one voxel).
func (g Grid) Extent() geom.Vec3 {
	return geom.V(
		float64(g.NX)*g.Spacing.X,
		float64(g.NY)*g.Spacing.Y,
		float64(g.NZ)*g.Spacing.Z,
	)
}

// Center returns the world coordinates of the grid center.
func (g Grid) Center() geom.Vec3 {
	return g.Origin.Add(geom.V(
		float64(g.NX-1)/2*g.Spacing.X,
		float64(g.NY-1)/2*g.Spacing.Y,
		float64(g.NZ-1)/2*g.Spacing.Z,
	))
}

// SameShape reports whether g and h have identical dimensions (spacing
// and origin may differ).
func (g Grid) SameShape(h Grid) bool {
	return g.NX == h.NX && g.NY == h.NY && g.NZ == h.NZ
}

// Validate returns an error if the grid has non-positive dimensions,
// more voxels than an int counts (so Len is exact on every grid Validate
// accepts), a spacing that is not positive and finite, or a non-finite
// origin.
func (g Grid) Validate() error {
	if g.NX <= 0 || g.NY <= 0 || g.NZ <= 0 {
		return fmt.Errorf("volume: invalid grid dims %dx%dx%d", g.NX, g.NY, g.NZ)
	}
	if g.NY > math.MaxInt/g.NX || g.NZ > math.MaxInt/(g.NX*g.NY) {
		return fmt.Errorf("volume: grid dims %dx%dx%d overflow the voxel count", g.NX, g.NY, g.NZ)
	}
	for _, s := range [3]float64{g.Spacing.X, g.Spacing.Y, g.Spacing.Z} {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("volume: invalid spacing %v", g.Spacing)
		}
	}
	for _, o := range [3]float64{g.Origin.X, g.Origin.Y, g.Origin.Z} {
		if math.IsNaN(o) || math.IsInf(o, 0) {
			return fmt.Errorf("volume: non-finite origin %v", g.Origin)
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (g Grid) String() string {
	return fmt.Sprintf("%dx%dx%d @ %v mm", g.NX, g.NY, g.NZ, g.Spacing)
}
