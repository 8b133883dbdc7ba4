// Package render produces the reproduction's analogue of the paper's
// visualizations: grayscale MR slices (Figure 4 panels), colored
// segmentation overlays, deformation-magnitude heat maps and
// displacement arrows (the color coding and blue arrows of Figure 5),
// written as portable pixmap (PPM) images with no external
// dependencies.
package render

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/volume"
)

// RGB is an 8-bit color.
type RGB struct{ R, G, B uint8 }

// Image is a simple RGB raster.
type Image struct {
	W, H int
	Pix  []RGB
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]RGB, w*h)}
}

// At returns the pixel at (x, y); black out of bounds.
func (im *Image) At(x, y int) RGB {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return RGB{}
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are dropped.
func (im *Image) Set(x, y int, c RGB) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = c
}

// WritePPM serializes the image as a binary PPM (P6).
func (im *Image) WritePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.W, im.H)
	for _, p := range im.Pix {
		bw.WriteByte(p.R)
		bw.WriteByte(p.G)
		bw.WriteByte(p.B)
	}
	return bw.Flush()
}

// SavePPM writes the image to the named file.
func (im *Image) SavePPM(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := im.WritePPM(f); err != nil {
		return err
	}
	return f.Close()
}

// Axis selects the slicing plane.
type Axis int

const (
	// AxisZ slices axially: image axes are (x, y).
	AxisZ Axis = iota
	// AxisY slices coronally: image axes are (x, z).
	AxisY
	// AxisX slices sagittally: image axes are (y, z).
	AxisX
)

// sliceDims returns the image dimensions for a slice of grid g.
func sliceDims(g volume.Grid, axis Axis) (w, h int) {
	switch axis {
	case AxisZ:
		return g.NX, g.NY
	case AxisY:
		return g.NX, g.NZ
	default:
		return g.NY, g.NZ
	}
}

// sliceVoxel maps image coordinates to voxel coordinates.
func sliceVoxel(axis Axis, x, y, index int) (i, j, k int) {
	switch axis {
	case AxisZ:
		return x, y, index
	case AxisY:
		return x, index, y
	default:
		return index, x, y
	}
}

// GraySlice renders one slice of a scalar volume windowed to [lo, hi].
func GraySlice(s *volume.Scalar, axis Axis, index int, lo, hi float64) (*Image, error) {
	g := s.Grid
	max := []int{g.NZ, g.NY, g.NX}[axis]
	if index < 0 || index >= max {
		return nil, fmt.Errorf("render: slice %d out of range [0,%d)", index, max)
	}
	if hi <= lo {
		hi = lo + 1
	}
	w, h := sliceDims(g, axis)
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i, j, k := sliceVoxel(axis, x, y, index)
			v := (s.At(i, j, k) - lo) / (hi - lo)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			b := uint8(v * 255)
			im.Set(x, y, RGB{b, b, b})
		}
	}
	return im, nil
}

func blend(a, b uint8, alpha float64) uint8 {
	return uint8(float64(a)*(1-alpha) + float64(b)*alpha)
}

// Heat maps t in [0,1] to a blue-to-red color scale (the magnitude
// coloring of the paper's Figure 5).
func Heat(t float64) RGB {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	// Blue (0) -> cyan -> green -> yellow -> red (1).
	r := clamp01(math.Min(4*t-2, 1))
	g := clamp01(math.Min(4*t, 4-4*t))
	b := clamp01(math.Min(2-4*t, 1))
	return RGB{uint8(r * 255), uint8(g * 255), uint8(b * 255)}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// OverlayFieldMagnitude blends a deformation-magnitude heat map onto
// the image wherever the displacement exceeds threshold (mm). maxMag
// sets the red end of the scale; <= 0 uses the field maximum.
func OverlayFieldMagnitude(im *Image, f *volume.Field, axis Axis, index int,
	maxMag, threshold, alpha float64) error {
	w, h := sliceDims(f.Grid, axis)
	if w != im.W || h != im.H {
		return fmt.Errorf("render: overlay %dx%d on image %dx%d", w, h, im.W, im.H)
	}
	if maxMag <= 0 {
		maxMag = f.MaxMagnitude()
		if maxMag == 0 {
			maxMag = 1
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i, j, k := sliceVoxel(axis, x, y, index)
			m := f.At(i, j, k).Norm()
			if m <= threshold {
				continue
			}
			c := Heat(m / maxMag)
			p := im.At(x, y)
			im.Set(x, y, RGB{
				blend(p.R, c.R, alpha),
				blend(p.G, c.G, alpha),
				blend(p.B, c.B, alpha),
			})
		}
	}
	return nil
}

// DrawLine draws a 1-pixel line with Bresenham's algorithm.
func (im *Image) DrawLine(x0, y0, x1, y1 int, c RGB) {
	dx := absInt(x1 - x0)
	dy := -absInt(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		im.Set(x0, y0, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// DrawArrows draws the in-plane projection of the displacement field as
// blue arrows on a stride grid — the paper's Figure 5 annotation. scale
// multiplies displacements (in voxels) for visibility; arrows shorter
// than minLen voxels are skipped.
func DrawArrows(im *Image, f *volume.Field, axis Axis, index, stride int,
	scale, minLen float64, c RGB) error {
	w, h := sliceDims(f.Grid, axis)
	if w != im.W || h != im.H {
		return fmt.Errorf("render: arrows %dx%d on image %dx%d", w, h, im.W, im.H)
	}
	if stride < 1 {
		stride = 1
	}
	for y := 0; y < h; y += stride {
		for x := 0; x < w; x += stride {
			i, j, k := sliceVoxel(axis, x, y, index)
			d := f.At(i, j, k)
			// Project onto the slice plane, converting mm to voxels.
			var ux, uy float64
			sp := f.Grid.Spacing
			switch axis {
			case AxisZ:
				ux, uy = d.X/sp.X, d.Y/sp.Y
			case AxisY:
				ux, uy = d.X/sp.X, d.Z/sp.Z
			default:
				ux, uy = d.Y/sp.Y, d.Z/sp.Z
			}
			ux *= scale
			uy *= scale
			if math.Hypot(ux, uy) < minLen {
				continue
			}
			x1 := x + int(math.Round(ux))
			y1 := y + int(math.Round(uy))
			im.DrawLine(x, y, x1, y1, c)
			// Arrowhead: a short back-stroke.
			im.Set(x1, y1, RGB{255, 255, 255})
		}
	}
	return nil
}
