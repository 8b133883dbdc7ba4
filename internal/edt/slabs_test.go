package edt

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

// TestPassesAnyCoreCount: the line passes split their planes and rows
// into one slab per core, and give the bits of one core at any core
// count — with more cores than slabs (three z-planes) and with uneven
// slabs.
func TestPassesAnyCoreCount(t *testing.T) {
	for _, g := range []volume.Grid{
		volume.NewGrid(5, 4, 3, 1),
		{NX: 6, NY: 11, NZ: 9, Spacing: geom.V(0.9, 1.1, 1.7)},
	} {
		rng := rand.New(rand.NewSource(int64(g.Len())))
		l := volume.NewLabels(g)
		for i := range l.Data {
			if rng.Float64() < 0.2 {
				l.Data[i] = volume.LabelBrain
			}
		}
		run := func(procs int) (sq []float64, signed, sat *volume.Scalar) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return SquaredFromMask(g, l.Mask(volume.LabelBrain)),
				SignedOfSet(l, volume.IsBrainTissue, 0), Saturated(l, volume.LabelBrain, 2.5)
		}
		wantSq, wantSigned, wantSat := run(1)
		for _, procs := range []int{2, 3, 7} {
			sq, signed, sat := run(procs)
			for i := range sq {
				if math.Float64bits(sq[i]) != math.Float64bits(wantSq[i]) ||
					math.Float32bits(signed.Data[i]) != math.Float32bits(wantSigned.Data[i]) ||
					math.Float32bits(sat.Data[i]) != math.Float32bits(wantSat.Data[i]) {
					t.Fatalf("%v at GOMAXPROCS %d: voxel %d differs from GOMAXPROCS 1", g, procs, i)
				}
			}
		}
	}
}
