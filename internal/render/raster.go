package render

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// Camera describes an orthographic view for surface rendering: the
// scene is projected along -Dir onto a plane spanned by Right and Up.
type Camera struct {
	// Dir is the viewing direction (from the eye toward the scene).
	Dir geom.Vec3
	// Up is the approximate up vector; it is re-orthogonalized.
	Up geom.Vec3
	// Scale is pixels per millimetre.
	Scale float64
}

// basis returns the orthonormal (right, up, forward) view basis.
func (c Camera) basis() (right, up, fwd geom.Vec3) {
	fwd = c.Dir.Normalized()
	if fwd.NormSq() == 0 {
		fwd = geom.V(0, 0, -1)
	}
	upGuess := c.Up
	if upGuess.NormSq() == 0 {
		upGuess = geom.V(0, 0, 1)
	}
	right = fwd.Cross(upGuess).Normalized()
	if right.NormSq() == 0 {
		// Up parallel to Dir: pick any perpendicular.
		right = fwd.Cross(geom.V(1, 0, 0)).Normalized()
		if right.NormSq() == 0 {
			right = fwd.Cross(geom.V(0, 1, 0)).Normalized()
		}
	}
	up = right.Cross(fwd)
	return
}

// RenderSurface rasterizes a triangle surface with flat Lambertian
// shading modulated by per-vertex colors (e.g. displacement-magnitude
// heat), using an orthographic camera and a z-buffer — the
// reproduction's version of the paper's Figure 5 surface rendering.
// vertexColors may be nil for a uniform gray surface.
func RenderSurface(s *mesh.TriMesh, vertexColors []RGB, cam Camera, w, h int) (*Image, error) {
	if s == nil || s.NumTris() == 0 {
		return nil, fmt.Errorf("render: empty surface")
	}
	if vertexColors != nil && len(vertexColors) != s.NumVerts() {
		return nil, fmt.Errorf("render: %d colors for %d vertices", len(vertexColors), s.NumVerts())
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("render: bad image size %dx%d", w, h)
	}
	right, up, fwd := cam.basis()
	center := s.Centroid()
	scale := cam.Scale
	if scale <= 0 {
		// Auto-fit: find the projected extent.
		maxR := 1e-9
		for _, v := range s.Verts {
			d := v.Sub(center)
			x := math.Abs(d.Dot(right))
			y := math.Abs(d.Dot(up))
			if x > maxR {
				maxR = x
			}
			if y > maxR {
				maxR = y
			}
		}
		scale = 0.45 * float64(min(w, h)) / maxR
	}
	project := func(p geom.Vec3) (x, y, z float64) {
		d := p.Sub(center)
		return float64(w)/2 + scale*d.Dot(right),
			float64(h)/2 - scale*d.Dot(up),
			d.Dot(fwd)
	}

	im := NewImage(w, h)
	zbuf := make([]float64, w*h)
	for i := range zbuf {
		zbuf[i] = math.Inf(1)
	}
	light := fwd.Scale(-1) // headlight

	for _, tri := range s.Tris {
		p0, p1, p2 := s.Verts[tri[0]], s.Verts[tri[1]], s.Verts[tri[2]]
		normal := p1.Sub(p0).Cross(p2.Sub(p0)).Normalized()
		shade := normal.Dot(light)
		if shade < 0 {
			shade = -shade // double-sided
		}
		shade = 0.25 + 0.75*shade
		var base RGB
		if vertexColors != nil {
			// Average the vertex colors (flat shading).
			base = RGB{
				uint8((int(vertexColors[tri[0]].R) + int(vertexColors[tri[1]].R) + int(vertexColors[tri[2]].R)) / 3),
				uint8((int(vertexColors[tri[0]].G) + int(vertexColors[tri[1]].G) + int(vertexColors[tri[2]].G)) / 3),
				uint8((int(vertexColors[tri[0]].B) + int(vertexColors[tri[1]].B) + int(vertexColors[tri[2]].B)) / 3),
			}
		} else {
			base = RGB{200, 200, 200}
		}
		col := RGB{
			uint8(float64(base.R) * shade),
			uint8(float64(base.G) * shade),
			uint8(float64(base.B) * shade),
		}

		x0, y0, z0 := project(p0)
		x1, y1, z1 := project(p1)
		x2, y2, z2 := project(p2)
		minX := int(math.Floor(math.Min(x0, math.Min(x1, x2))))
		maxX := int(math.Ceil(math.Max(x0, math.Max(x1, x2))))
		minY := int(math.Floor(math.Min(y0, math.Min(y1, y2))))
		maxY := int(math.Ceil(math.Max(y0, math.Max(y1, y2))))
		if minX < 0 {
			minX = 0
		}
		if minY < 0 {
			minY = 0
		}
		if maxX >= w {
			maxX = w - 1
		}
		if maxY >= h {
			maxY = h - 1
		}
		area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
		if math.Abs(area) < 1e-12 {
			continue
		}
		for py := minY; py <= maxY; py++ {
			for px := minX; px <= maxX; px++ {
				fx, fy := float64(px)+0.5, float64(py)+0.5
				w0 := ((x1-fx)*(y2-fy) - (x2-fx)*(y1-fy)) / area
				w1 := ((x2-fx)*(y0-fy) - (x0-fx)*(y2-fy)) / area
				w2 := 1 - w0 - w1
				if w0 < 0 || w1 < 0 || w2 < 0 {
					continue
				}
				z := w0*z0 + w1*z1 + w2*z2
				idx := py*w + px
				if z < zbuf[idx] {
					zbuf[idx] = z
					im.Pix[idx] = col
				}
			}
		}
	}
	return im, nil
}

// DisplacementColors maps per-vertex displacement vectors to heat
// colors scaled by maxMag (<= 0 uses the maximum magnitude present).
func DisplacementColors(disp []geom.Vec3, maxMag float64) []RGB {
	if maxMag <= 0 {
		for _, d := range disp {
			if m := d.Norm(); m > maxMag {
				maxMag = m
			}
		}
		if maxMag == 0 {
			maxMag = 1
		}
	}
	out := make([]RGB, len(disp))
	for i, d := range disp {
		out[i] = Heat(d.Norm() / maxMag)
	}
	return out
}
