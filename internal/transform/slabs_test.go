package transform

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

// TestResampleAnyCoreCount: both resamples split the output's z-planes
// into one slab per core, and give the bits of one core at any core
// count — with more cores than slabs (three z-planes) and with uneven
// slabs.
func TestResampleAnyCoreCount(t *testing.T) {
	for _, g := range []volume.Grid{
		volume.NewGrid(5, 4, 3, 1),
		{NX: 6, NY: 5, NZ: 11, Spacing: geom.V(0.9, 1.1, 1.7), Origin: geom.V(-2, 3, 1)},
	} {
		rng := rand.New(rand.NewSource(int64(g.Len())))
		s, l := volume.NewScalar(g), volume.NewLabels(g)
		for i := range s.Data {
			s.Data[i] = float32(100 * rng.Float64())
			l.Data[i] = volume.Label(rng.Intn(4))
		}
		r := Rigid{RX: 0.05, RY: -0.03, RZ: 0.08, TX: 0.7, TY: -0.4, TZ: 0.3, Center: g.Center()}
		run := func(procs int) (*volume.Scalar, *volume.Labels) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return ResampleScalar(s, r, g), ResampleLabels(l, r, g)
		}
		wantS, wantL := run(1)
		for _, procs := range []int{2, 3, 7} {
			gotS, gotL := run(procs)
			for i := range gotS.Data {
				if math.Float32bits(gotS.Data[i]) != math.Float32bits(wantS.Data[i]) || gotL.Data[i] != wantL.Data[i] {
					t.Fatalf("%v at GOMAXPROCS %d: voxel %d differs from GOMAXPROCS 1", g, procs, i)
				}
			}
		}
	}
}
