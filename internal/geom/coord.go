package geom

import "math"

// This file names the two coordinate frames the pipeline moves data
// between, so the type system can tell them apart:
//
//   - Vec3 (vec.go) is a point or vector in PHYSICAL space, in
//     millimeters, in the scanner frame a volume's Origin and Spacing
//     define.
//   - Voxel is a DISCRETE grid index (i, j, k) into a volume.
//   - VoxelPoint is a CONTINUOUS position measured in voxel units —
//     what you get when a millimeter point is divided by the grid
//     spacing but before it is rounded to an index. Interpolation
//     weights live here.
//
// Converting between frames requires the grid geometry (origin,
// spacing), so conversions are methods on volume.Grid (World, WorldOf,
// Voxel). Constructing one frame's type from another frame's components
// anywhere else is exactly the "millimeters used as indices" bug class
// this boundary exists to stop; the anisotropic and off-origin grid
// tests (TestRasterizeMatchesWideBoxOracle,
// TestPipelineAnisotropicClinicalGeometry) fail on it.

// Voxel is a discrete voxel index (i, j, k) into a volume grid.
// It is unit-free: it only means something relative to one Grid.
type Voxel struct {
	I, J, K int
}

// Vox is shorthand for Voxel{I: i, J: j, K: k}.
func Vox(i, j, k int) Voxel { return Voxel{I: i, J: j, K: k} }

// Add returns the component-wise sum v + w.
func (v Voxel) Add(w Voxel) Voxel { return Voxel{v.I + w.I, v.J + w.J, v.K + w.K} }

// VoxelPoint is a continuous position in voxel units: the fractional
// grid coordinates of a physical point. Component f of a VoxelPoint
// sits between indices floor(f) and floor(f)+1.
type VoxelPoint struct {
	X, Y, Z float64
}

// Floor returns the voxel whose low corner contains p: the base index
// for trilinear interpolation.
func (p VoxelPoint) Floor() Voxel {
	return Voxel{int(math.Floor(p.X)), int(math.Floor(p.Y)), int(math.Floor(p.Z))}
}

// Round returns the nearest voxel index to p.
func (p VoxelPoint) Round() Voxel {
	return Voxel{int(math.Round(p.X)), int(math.Round(p.Y)), int(math.Round(p.Z))}
}
