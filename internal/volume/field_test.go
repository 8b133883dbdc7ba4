package volume

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestFieldSetAt(t *testing.T) {
	f := NewField(NewGrid(3, 3, 3, 1))
	f.Set(1, 1, 1, geom.V(0.5, -0.25, 2))
	got := f.At(1, 1, 1)
	if got.Sub(geom.V(0.5, -0.25, 2)).MaxAbs() > 1e-6 {
		t.Errorf("At = %v", got)
	}
	if f.At(-1, 0, 0) != (geom.Vec3{}) {
		t.Error("out-of-bounds At should be zero")
	}
}

func TestFieldMagnitudes(t *testing.T) {
	f := NewField(NewGrid(2, 1, 1, 1))
	f.Set(0, 0, 0, geom.V(3, 4, 0)) // magnitude 5
	f.Set(1, 0, 0, geom.V(0, 0, 1)) // magnitude 1
	if m := f.MaxMagnitude(); math.Abs(m-5) > 1e-6 {
		t.Errorf("MaxMagnitude = %v", m)
	}
	if m := f.MeanMagnitude(nil); math.Abs(m-3) > 1e-6 {
		t.Errorf("MeanMagnitude = %v", m)
	}
	mask := []bool{false, true}
	if m := f.MeanMagnitude(mask); math.Abs(m-1) > 1e-6 {
		t.Errorf("masked MeanMagnitude = %v", m)
	}
}

func TestRMSDifference(t *testing.T) {
	a := NewField(NewGrid(2, 1, 1, 1))
	b := NewField(NewGrid(2, 1, 1, 1))
	a.Set(0, 0, 0, geom.V(1, 0, 0))
	b.Set(0, 0, 0, geom.V(0, 0, 0))
	rms, err := a.RMSDifference(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(0.5)
	if math.Abs(rms-want) > 1e-6 {
		t.Errorf("RMS = %v, want %v", rms, want)
	}
	if _, err := a.RMSDifference(NewField(NewGrid(3, 1, 1, 1)), nil); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestWarpScalarWithConstantShift(t *testing.T) {
	// A constant displacement of +2mm in x means the warped image at p
	// shows src at p+2: i.e. the content moves left by 2.
	g := NewGrid(10, 4, 4, 1)
	src := NewScalar(g)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 10; i++ {
				src.Set(i, j, k, float64(i))
			}
		}
	}
	f := NewField(g)
	for i := range f.DX {
		f.DX[i] = 2
	}
	out := f.WarpScalar(src)
	// Interior voxel (3,2,2) should now hold src value at x=5.
	if got := out.At(3, 2, 2); math.Abs(got-5) > 1e-5 {
		t.Errorf("warped value = %v, want 5", got)
	}
}

func TestWarpLabelsNearest(t *testing.T) {
	g := NewGrid(6, 3, 3, 1)
	src := NewLabels(g)
	src.Set(4, 1, 1, LabelTumor)
	f := NewField(g)
	for i := range f.DX {
		f.DX[i] = 2
	}
	out := f.WarpLabels(src)
	if out.At(2, 1, 1) != LabelTumor {
		t.Error("label did not move as expected")
	}
}

func TestFieldSampleWorldInterpolates(t *testing.T) {
	g := NewGrid(3, 3, 3, 1)
	f := NewField(g)
	f.Set(0, 0, 0, geom.V(0, 0, 0))
	f.Set(1, 0, 0, geom.V(2, 0, 0))
	got := f.SampleWorld(geom.V(0.5, 0, 0))
	if math.Abs(got.X-1) > 1e-6 {
		t.Errorf("SampleWorld = %v, want x=1", got)
	}
}

func TestInvertRoundTrip(t *testing.T) {
	// A smooth forward field composed with its inverse should be near
	// zero in the interior.
	g := NewGrid(16, 16, 16, 1)
	f := NewField(g)
	c := g.Center()
	for k := 0; k < 16; k++ {
		for j := 0; j < 16; j++ {
			for i := 0; i < 16; i++ {
				p := g.World(i, j, k)
				w := math.Exp(-p.Sub(c).NormSq() / 30)
				f.Set(i, j, k, geom.V(1.5*w, -w, 0.5*w))
			}
		}
	}
	inv := f.Invert(8)
	for k := 4; k < 12; k++ {
		for j := 4; j < 12; j++ {
			for i := 4; i < 12; i++ {
				q := g.World(i, j, k)
				v := inv.At(i, j, k)
				// q + v should map back through f to q: v + u(q+v) ~ 0.
				res := v.Add(f.SampleWorld(q.Add(v)))
				if res.Norm() > 0.05 {
					t.Fatalf("inverse residual %v at (%d,%d,%d)", res.Norm(), i, j, k)
				}
			}
		}
	}
}

func TestInvertOfZeroIsZero(t *testing.T) {
	f := NewField(NewGrid(6, 6, 6, 1))
	inv := f.Invert(0) // 0 iterations defaults to 5
	if inv.MaxMagnitude() != 0 {
		t.Error("inverse of zero field not zero")
	}
}
