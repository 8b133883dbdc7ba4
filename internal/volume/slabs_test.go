package volume

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// slabGrids are the grids the core-count tests run on: three z-planes,
// fewer than GOMAXPROCS 7, and eleven, which 2, 3 or 7 cores split
// unevenly.
var slabGrids = []Grid{
	NewGrid(5, 4, 3, 1),
	{NX: 6, NY: 5, NZ: 11, Spacing: geom.V(0.9, 1.1, 1.7), Origin: geom.V(-2, 3, 1)},
}

// TestPassesAnyCoreCount: smoothing, warping and inversion split their
// z-planes into one slab per core, and give the bits of one core at
// any core count.
func TestPassesAnyCoreCount(t *testing.T) {
	for _, g := range slabGrids {
		rng := rand.New(rand.NewSource(int64(g.Len())))
		s, f := NewScalar(g), NewField(g)
		for i := range s.Data {
			s.Data[i] = float32(100 * rng.Float64())
			f.DX[i] = float32(rng.NormFloat64())
			f.DY[i] = float32(rng.NormFloat64())
			f.DZ[i] = float32(rng.NormFloat64())
		}
		run := func(procs int) [5][]float32 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			inv := f.Invert(4)
			return [5][]float32{s.SmoothGaussian(1.2).Data, f.WarpScalar(s).Data, inv.DX, inv.DY, inv.DZ}
		}
		want := run(1)
		for _, procs := range []int{2, 3, 7} {
			got := run(procs)
			for o, name := range []string{"smoothed", "warped", "inverse x", "inverse y", "inverse z"} {
				if !sameBits32(got[o], want[o]) {
					t.Errorf("%v at GOMAXPROCS %d: %s differs from GOMAXPROCS 1", g, procs, name)
				}
			}
		}
	}
}
