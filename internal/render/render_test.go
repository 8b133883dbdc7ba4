package render

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

func TestImageSetAt(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(1, 2, RGB{10, 20, 30})
	if got := im.At(1, 2); got != (RGB{10, 20, 30}) {
		t.Errorf("At = %v", got)
	}
	if got := im.At(-1, 0); got != (RGB{}) {
		t.Errorf("out-of-bounds At = %v", got)
	}
	im.Set(99, 99, RGB{1, 1, 1}) // must not panic
}

func TestWritePPM(t *testing.T) {
	im := NewImage(2, 1)
	im.Set(0, 0, RGB{255, 0, 0})
	im.Set(1, 0, RGB{0, 255, 0})
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("P6\n2 1\n255\n"), 255, 0, 0, 0, 255, 0)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("PPM = %q", buf.Bytes())
	}
}

func TestSavePPM(t *testing.T) {
	im := NewImage(2, 2)
	path := filepath.Join(t.TempDir(), "x.ppm")
	if err := im.SavePPM(path); err != nil {
		t.Fatal(err)
	}
}

func testScalar() *volume.Scalar {
	g := volume.NewGrid(4, 3, 2, 1)
	s := volume.NewScalar(g)
	for i := range s.Data {
		s.Data[i] = float32(i)
	}
	return s
}

func TestGraySliceAxes(t *testing.T) {
	s := testScalar()
	for _, tc := range []struct {
		axis Axis
		w, h int
	}{
		{AxisZ, 4, 3},
		{AxisY, 4, 2},
		{AxisX, 3, 2},
	} {
		im, err := GraySlice(s, tc.axis, 0, 0, 23)
		if err != nil {
			t.Fatal(err)
		}
		if im.W != tc.w || im.H != tc.h {
			t.Errorf("axis %d: image %dx%d, want %dx%d", tc.axis, im.W, im.H, tc.w, tc.h)
		}
	}
}

func TestGraySliceWindow(t *testing.T) {
	s := testScalar()
	im, err := GraySlice(s, AxisZ, 0, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Voxel (0,0,0)=0 -> black, voxel (3,2,0)=11 -> mid-gray.
	if im.At(0, 0) != (RGB{0, 0, 0}) {
		t.Errorf("pixel(0,0) = %v", im.At(0, 0))
	}
	p := im.At(3, 2)
	if p.R < 100 || p.R > 150 || p.R != p.G || p.G != p.B {
		t.Errorf("pixel(3,2) = %v, want mid-gray", p)
	}
	if _, err := GraySlice(s, AxisZ, 5, 0, 1); err == nil {
		t.Error("out-of-range slice accepted")
	}
}

func TestHeatEndpoints(t *testing.T) {
	if c := Heat(0); c.B < 200 || c.R > 50 {
		t.Errorf("Heat(0) = %v, want blue", c)
	}
	if c := Heat(1); c.R < 200 || c.B > 50 {
		t.Errorf("Heat(1) = %v, want red", c)
	}
	if c := Heat(0.5); c.G < 200 {
		t.Errorf("Heat(0.5) = %v, want green-ish", c)
	}
	// Clamping.
	if Heat(-5) != Heat(0) || Heat(7) != Heat(1) {
		t.Error("Heat does not clamp")
	}
}

func TestOverlayFieldMagnitude(t *testing.T) {
	g := volume.NewGrid(4, 4, 1, 1)
	f := volume.NewField(g)
	f.Set(2, 2, 0, geom.V(5, 0, 0))
	im := NewImage(4, 4)
	if err := OverlayFieldMagnitude(im, f, AxisZ, 0, 5, 0.1, 1.0); err != nil {
		t.Fatal(err)
	}
	// Displaced voxel gets the hot end of the scale.
	if p := im.At(2, 2); p.R < 200 {
		t.Errorf("displaced pixel = %v, want red", p)
	}
	// Zero-displacement voxels below threshold stay black.
	if im.At(0, 0) != (RGB{}) {
		t.Error("static pixel was painted")
	}
}

func TestDrawLine(t *testing.T) {
	im := NewImage(5, 5)
	c := RGB{255, 255, 255}
	im.DrawLine(0, 0, 4, 4, c)
	for i := 0; i < 5; i++ {
		if im.At(i, i) != c {
			t.Errorf("diagonal pixel (%d,%d) not drawn", i, i)
		}
	}
	im2 := NewImage(5, 5)
	im2.DrawLine(4, 2, 0, 2, c)
	for i := 0; i < 5; i++ {
		if im2.At(i, 2) != c {
			t.Errorf("horizontal pixel (%d,2) not drawn", i)
		}
	}
}

func TestDrawArrows(t *testing.T) {
	g := volume.NewGrid(16, 16, 1, 1)
	f := volume.NewField(g)
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			f.Set(i, j, 0, geom.V(4, 0, 0))
		}
	}
	im := NewImage(16, 16)
	blue := RGB{0, 0, 255}
	if err := DrawArrows(im, f, AxisZ, 0, 8, 1, 1, blue); err != nil {
		t.Fatal(err)
	}
	// Arrow starts at (0,0) heading +x: pixels along the shaft are blue.
	if im.At(1, 0) != blue {
		t.Errorf("arrow shaft missing: %v", im.At(1, 0))
	}
	// No arrows between stride points.
	if im.At(1, 3) != (RGB{}) {
		t.Error("unexpected drawing off the stride grid")
	}
	if err := DrawArrows(NewImage(2, 2), f, AxisZ, 0, 1, 1, 1, blue); err == nil {
		t.Error("mismatched arrows accepted")
	}
}
