package fem

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/solver"
	"repro/internal/volume"
)

// TestInterpTable32TracksFloat64Table pins the compact resampling
// path: Compact shares the coverage arrays with the source table,
// and its float64-accumulated gather over float32 weights stays within
// float32-rounding distance of the float64 table on every voxel and
// equals the float64 gather over the rounded weights exactly.
func TestInterpTable32TracksFloat64Table(t *testing.T) {
	const n = 6
	sys, m := cubeSystem(t, n, 2, 2)
	bc := surfaceBC(t, m, func(p geom.Vec3) geom.Vec3 {
		return geom.V(0.03*p.Y, -0.02*p.Z, 0.01*p.X)
	})
	if err := sys.ApplyDirichlet(bc); err != nil {
		t.Fatal(err)
	}
	res, err := sys.SolveContext(context.Background(), solver.Options{Tol: 1e-8, MaxIter: 2000, Restart: 40})
	if err != nil || !res.Stats.Converged {
		t.Fatalf("solve: err=%v stats=%v", err, res.Stats)
	}

	g := volume.NewGrid(n, n, n, 1)
	tab := sys.BuildInterpTable(g)
	c := tab.Compact()
	if c.Covered() != tab.Covered() {
		t.Fatalf("compact table covers %d voxels, source %d", c.Covered(), tab.Covered())
	}
	if !c.Grid().SameShape(g) {
		t.Fatalf("compact grid = %v, want %v", c.Grid(), g)
	}
	if &c.vox[0] != &tab.vox[0] || &c.nodes[0] != &tab.nodes[0] {
		t.Fatal("Compact should share vox and nodes backing arrays")
	}

	want := tab.Apply(res.NodeU)
	got := c.Apply(res.NodeU)

	// Against a float64 table holding the rounded weights the gather is
	// the same products in the same order: bit-identical, so a float32
	// accumulator in InterpTable32.Apply fails here.
	w := make([]float64, len(c.w32))
	for i, w32 := range c.w32 {
		w[i] = float64(w32)
	}
	rounded := (&InterpTable{grid: tab.grid, vox: tab.vox, nodes: tab.nodes, w: w}).Apply(res.NodeU)
	if !slices.Equal(got.DX, rounded.DX) || !slices.Equal(got.DY, rounded.DY) || !slices.Equal(got.DZ, rounded.DZ) {
		t.Fatal("compact Apply differs from the float64 table with rounded weights")
	}

	// Largest displacement magnitude bounds the weight-rounding error:
	// |Δ| ≤ 4 · eps32 · max|u| per component.
	maxU := 0.0
	for _, u := range res.NodeU {
		maxU = math.Max(maxU, math.Max(math.Abs(u.X), math.Max(math.Abs(u.Y), math.Abs(u.Z))))
	}
	tol := float32(4 * 1.2e-7 * (maxU + 1))
	for idx := range want.DX {
		if dx := got.DX[idx] - want.DX[idx]; dx > tol || -dx > tol {
			t.Fatalf("voxel %d DX: compact %g vs float64 %g", idx, got.DX[idx], want.DX[idx])
		}
		if dy := got.DY[idx] - want.DY[idx]; dy > tol || -dy > tol {
			t.Fatalf("voxel %d DY: compact %g vs float64 %g", idx, got.DY[idx], want.DY[idx])
		}
		if dz := got.DZ[idx] - want.DZ[idx]; dz > tol || -dz > tol {
			t.Fatalf("voxel %d DZ: compact %g vs float64 %g", idx, got.DZ[idx], want.DZ[idx])
		}
	}
}
