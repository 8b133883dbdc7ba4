package register

import (
	"context"
	"testing"

	"repro/internal/transform"
	"repro/internal/volume"
)

// TestAlignRecoversKnownTransform checks the headline registration
// property: misalign a structured volume by a known rigid transform and
// verify Align recovers it within a voxel of accuracy.
func TestAlignRecoversKnownTransform(t *testing.T) {
	fixed := testVolume(32, 71)
	truth := transform.Rigid{
		RZ: 0.06, TX: 2.5, TY: -1.5, TZ: 1.0,
		Center: fixed.Grid.Center(),
	}
	// moving = fixed moved by truth^(-1): then aligning moving by truth
	// reproduces fixed.
	inv := truth.Inverse()
	moving := volume.NewScalar(fixed.Grid)
	for k := 0; k < fixed.Grid.NZ; k++ {
		for j := 0; j < fixed.Grid.NY; j++ {
			for i := 0; i < fixed.Grid.NX; i++ {
				p := fixed.Grid.World(i, j, k)
				moving.Set(i, j, k, fixed.SampleWorld(truth.Apply(p)))
			}
		}
	}
	_ = inv

	opts := DefaultOptions()
	opts.Levels = []int{2, 1}
	opts.MaxIter = 10
	init := CenterOfMassInit(fixed, moving, opts.Threshold)
	res, err := AlignContext(context.Background(), fixed, moving, init, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMI <= res.InitialMI {
		t.Errorf("MI did not improve: %v -> %v", res.InitialMI, res.FinalMI)
	}
	// Check recovered transform reproduces the truth mapping within
	// ~1.5mm over the volume.
	maxErr := 0.0
	g := fixed.Grid
	for _, corner := range [][3]int{{4, 4, 4}, {27, 4, 4}, {4, 27, 4}, {4, 4, 27}, {27, 27, 27}, {16, 16, 16}} {
		p := g.World(corner[0], corner[1], corner[2])
		want := truth.Apply(p)
		got := res.Transform.Apply(p)
		if d := want.Dist(got); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1.5 {
		t.Errorf("registration error %v mm, want <= 1.5 (recovered %v)", maxErr, res.Transform)
	}
	if len(res.LevelStats) != 2 {
		t.Errorf("LevelStats = %d entries, want 2", len(res.LevelStats))
	}
}

func TestAlignIdentityStaysPut(t *testing.T) {
	fixed := testVolume(24, 72)
	opts := DefaultOptions()
	opts.Levels = []int{2}
	opts.MaxIter = 3
	init := transform.Identity(fixed.Grid.Center())
	res, err := AlignContext(context.Background(), fixed, fixed.Clone(), init, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Self-registration from identity must not wander off.
	if d := res.Transform.MaxDisplacement(fixed.Grid); d > 1.5 {
		t.Errorf("self-registration drifted %v mm", d)
	}
}

func TestAlignRejectsInvalidGrids(t *testing.T) {
	bad := &volume.Scalar{Grid: volume.Grid{}}
	good := testVolume(8, 73)
	if _, err := AlignContext(context.Background(), bad, good, transform.Rigid{}, DefaultOptions()); err == nil {
		t.Error("invalid fixed grid accepted")
	}
	if _, err := AlignContext(context.Background(), good, bad, transform.Rigid{}, DefaultOptions()); err == nil {
		t.Error("invalid moving grid accepted")
	}
}

func TestDownsampleAveragesAndAlignsWorld(t *testing.T) {
	g := volume.NewGrid(4, 4, 4, 1)
	s := volume.NewScalar(g)
	for i := range s.Data {
		s.Data[i] = float32(i % 2) // alternating 0/1 along x
	}
	d := s.Downsample(2)
	if d.Grid.NX != 2 || d.Grid.Spacing.X != 2 {
		t.Fatalf("downsampled grid = %v", d.Grid)
	}
	// Each 2x2x2 box has four 0s and four 1s: average 0.5.
	if v := d.At(0, 0, 0); v != 0.5 {
		t.Errorf("box average = %v, want 0.5", v)
	}
	// World centers must agree: voxel (0,0,0) of the coarse grid covers
	// fine voxels 0..1, so its center sits at 0.5.
	if c := d.Grid.World(0, 0, 0); c.X != 0.5 {
		t.Errorf("coarse center = %v, want x=0.5", c)
	}
}

func TestDownsampleFactorOneClones(t *testing.T) {
	s := testVolume(8, 74)
	d := s.Downsample(1)
	if !d.Grid.SameShape(s.Grid) {
		t.Error("factor 1 changed shape")
	}
	d.Set(0, 0, 0, 999)
	if s.At(0, 0, 0) == 999 {
		t.Error("downsample aliases source")
	}
}
