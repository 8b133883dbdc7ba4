package volume

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestScalarSetAt(t *testing.T) {
	s := NewScalar(NewGrid(3, 3, 3, 1))
	s.Set(1, 2, 0, 7)
	if got := s.At(1, 2, 0); got != 7 {
		t.Errorf("At = %v, want 7", got)
	}
	if got := s.At(-1, 0, 0); got != 0 {
		t.Errorf("out-of-bounds At = %v, want 0", got)
	}
	s.Set(10, 10, 10, 5) // must not panic
}

func TestTrilinearExactAtVoxels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewScalar(NewGrid(5, 4, 3, 1))
	for i := range s.Data {
		s.Data[i] = float32(rng.Float64() * 100)
	}
	for k := 0; k < 3; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 5; i++ {
				got := s.SampleVoxel(float64(i), float64(j), float64(k))
				want := s.At(i, j, k)
				if math.Abs(got-want) > 1e-4 {
					t.Fatalf("SampleVoxel(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestTrilinearReproducesLinearRamp(t *testing.T) {
	// f(x,y,z) = 3x + 2y - z is linear, so trilinear interpolation is
	// exact everywhere inside the grid.
	g := NewGrid(6, 6, 6, 1)
	s := NewScalar(g)
	for k := 0; k < 6; k++ {
		for j := 0; j < 6; j++ {
			for i := 0; i < 6; i++ {
				s.Set(i, j, k, 3*float64(i)+2*float64(j)-float64(k))
			}
		}
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		x := rng.Float64() * 5
		y := rng.Float64() * 5
		z := rng.Float64() * 5
		want := 3*x + 2*y - z
		if got := s.SampleVoxel(x, y, z); math.Abs(got-want) > 1e-4 {
			t.Fatalf("SampleVoxel(%v,%v,%v) = %v, want %v", x, y, z, got, want)
		}
	}
}

func TestSampleOutsideReturnsZero(t *testing.T) {
	s := NewScalar(NewGrid(3, 3, 3, 1))
	s.Fill(9)
	if got := s.SampleVoxel(-0.5, 1, 1); got != 0 {
		t.Errorf("outside sample = %v, want 0", got)
	}
	if got := s.SampleVoxel(1, 1, 2.5); got != 0 {
		t.Errorf("outside sample = %v, want 0", got)
	}
	// Exactly on the last voxel plane remains in-bounds.
	if got := s.SampleVoxel(2, 2, 2); got != 9 {
		t.Errorf("edge sample = %v, want 9", got)
	}
}

func TestSampleWorldRespectsSpacingAndOrigin(t *testing.T) {
	g := Grid{NX: 4, NY: 4, NZ: 4, Spacing: geom.V(2, 2, 2), Origin: geom.V(10, 0, 0)}
	s := NewScalar(g)
	s.Set(1, 1, 1, 42)
	if got := s.SampleWorld(geom.V(12, 2, 2)); math.Abs(got-42) > 1e-6 {
		t.Errorf("SampleWorld = %v, want 42", got)
	}
}

func TestGradientWorldOfLinearRamp(t *testing.T) {
	g := NewGrid(8, 8, 8, 1.5)
	s := NewScalar(g)
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				p := g.World(i, j, k)
				s.Set(i, j, k, 2*p.X-p.Y+0.5*p.Z)
			}
		}
	}
	grad := s.GradientWorld(g.Center())
	want := geom.V(2, -1, 0.5)
	if grad.Sub(want).MaxAbs() > 1e-4 {
		t.Errorf("GradientWorld = %v, want %v", grad, want)
	}
}

func TestMinMaxMeanStats(t *testing.T) {
	s := NewScalar(NewGrid(2, 2, 1, 1))
	copy(s.Data, []float32{1, 2, 3, 4})
	lo, hi := s.MinMax()
	if lo != 1 || hi != 4 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	st := s.ComputeStats(nil)
	if st.N != 4 || st.Mean != 2.5 || st.Min != 1 || st.Max != 4 {
		t.Errorf("Stats = %+v", st)
	}
	wantStd := math.Sqrt((1.5*1.5 + 0.5*0.5 + 0.5*0.5 + 1.5*1.5) / 4)
	if math.Abs(st.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %v, want %v", st.Std, wantStd)
	}
}

func TestComputeStatsMasked(t *testing.T) {
	s := NewScalar(NewGrid(2, 2, 1, 1))
	copy(s.Data, []float32{1, 100, 3, 100})
	mask := []bool{true, false, true, false}
	st := s.ComputeStats(mask)
	if st.N != 2 || st.Mean != 2 || st.Max != 3 {
		t.Errorf("masked stats = %+v", st)
	}
	if st := s.ComputeStats(make([]bool, 4)); st.N != 0 {
		t.Errorf("empty-mask stats = %+v", st)
	}
}

func TestAbsDiff(t *testing.T) {
	a := NewScalar(NewGrid(2, 1, 1, 1))
	b := NewScalar(NewGrid(2, 1, 1, 1))
	a.Data[0], a.Data[1] = 5, 1
	b.Data[0], b.Data[1] = 2, 4
	d, err := a.AbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Data[0] != 3 || d.Data[1] != 3 {
		t.Errorf("AbsDiff = %v", d.Data)
	}
	if _, err := a.AbsDiff(NewScalar(NewGrid(3, 1, 1, 1))); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestSmoothGaussianPreservesConstant(t *testing.T) {
	s := NewScalar(NewGrid(8, 8, 8, 1))
	s.Fill(5)
	sm := s.SmoothGaussian(1.2)
	for i, v := range sm.Data {
		if math.Abs(float64(v)-5) > 1e-4 {
			t.Fatalf("smoothed constant changed at %d: %v", i, v)
		}
	}
}

func TestSmoothGaussianReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewScalar(NewGrid(12, 12, 12, 1))
	for i := range s.Data {
		s.Data[i] = float32(rng.NormFloat64())
	}
	sm := s.SmoothGaussian(1.5)
	if sm.ComputeStats(nil).Std >= s.ComputeStats(nil).Std {
		t.Error("smoothing did not reduce noise standard deviation")
	}
}

func TestSmoothGaussianZeroSigmaIsClone(t *testing.T) {
	s := NewScalar(NewGrid(3, 3, 3, 1))
	s.Set(1, 1, 1, 7)
	sm := s.SmoothGaussian(0)
	if sm.At(1, 1, 1) != 7 {
		t.Error("sigma=0 should clone")
	}
	sm.Set(1, 1, 1, 0)
	if s.At(1, 1, 1) != 7 {
		t.Error("clone aliases original data")
	}
}
