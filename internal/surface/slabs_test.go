package surface

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/volume"
)

// TestEvolveAnyCoreCount: the per-vertex updates run on one vertex
// range per core and their mean is summed in vertex order, so the
// iteration count and every displacement are the bits of one core at
// any core count — on a four-vertex surface, fewer vertices than
// GOMAXPROCS 7, and on a sphere that 2, 3 or 7 cores split unevenly.
func TestEvolveAnyCoreCount(t *testing.T) {
	tet := &mesh.TriMesh{
		Verts:  []geom.Vec3{geom.V(6, 6, 6), geom.V(10, 6, 6), geom.V(6, 10, 6), geom.V(6, 6, 10)},
		Tris:   [][3]int32{{0, 2, 1}, {0, 1, 3}, {0, 3, 2}, {1, 2, 3}},
		NodeID: []int32{0, 1, 2, 3},
	}
	sphere := brainSurface(t, sphereLabels(20, 7))
	if n := sphere.NumVerts(); n%3 == 0 || n%7 == 0 {
		t.Fatalf("%d sphere vertices split evenly", n)
	}
	phi := edt.Signed(sphereLabels(20, 5), volume.LabelBrain, 0)
	for _, s := range []*mesh.TriMesh{tet, sphere} {
		run := func(procs int) *Result {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, err := EvolveContext(context.Background(), s, SignedDistanceForce{Phi: phi}, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(1)
		if want.MaxDisp == 0 {
			t.Fatal("no vertex moved: the case does not exercise the evolution")
		}
		for _, procs := range []int{2, 3, 7} {
			got := run(procs)
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Errorf("%d vertices at GOMAXPROCS %d: %d iterations (converged %v), want %d (%v)",
					s.NumVerts(), procs, got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
			for v, d := range got.Displacements {
				w := want.Displacements[v]
				if math.Float64bits(d.X) != math.Float64bits(w.X) || math.Float64bits(d.Y) != math.Float64bits(w.Y) ||
					math.Float64bits(d.Z) != math.Float64bits(w.Z) {
					t.Fatalf("%d vertices at GOMAXPROCS %d: vertex %d moved %v, want %v", s.NumVerts(), procs, v, d, w)
				}
			}
		}
	}
}
