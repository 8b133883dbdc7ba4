package volume

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestGridIndexRoundTrip(t *testing.T) {
	g := NewGrid(7, 5, 3, 1)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				idx := g.Index(i, j, k)
				ri, rj, rk := g.Coords(idx)
				if ri != i || rj != j || rk != k {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", i, j, k, idx, ri, rj, rk)
				}
			}
		}
	}
}

func TestGridIndexIsBijection(t *testing.T) {
	g := NewGrid(4, 6, 5, 1)
	seen := make([]bool, g.Len())
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				idx := g.Index(i, j, k)
				if idx < 0 || idx >= g.Len() {
					t.Fatalf("index out of range: %d", idx)
				}
				if seen[idx] {
					t.Fatalf("index %d assigned twice", idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestWorldVoxelRoundTrip(t *testing.T) {
	g := Grid{NX: 10, NY: 12, NZ: 8, Spacing: geom.V(0.9, 1.1, 2.5), Origin: geom.V(-30, 5, 12)}
	f := func(x, y, z float64) bool {
		p := geom.V(math.Mod(x, 1e4), math.Mod(y, 1e4), math.Mod(z, 1e4))
		if !p.IsFinite() {
			return true
		}
		v := g.Voxel(p)
		back := g.World(0, 0, 0).Add(geom.V(v.X*g.Spacing.X, v.Y*g.Spacing.Y, v.Z*g.Spacing.Z))
		return back.Sub(p).MaxAbs() < 1e-9*(1+p.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestWorldOfVoxelCenters(t *testing.T) {
	g := Grid{NX: 4, NY: 4, NZ: 4, Spacing: geom.V(2, 2, 2), Origin: geom.V(1, 1, 1)}
	p := g.World(1, 2, 3)
	want := geom.V(3, 5, 7)
	if p != want {
		t.Errorf("World(1,2,3) = %v, want %v", p, want)
	}
	v := g.Voxel(want)
	if (v != geom.VoxelPoint{X: 1, Y: 2, Z: 3}) {
		t.Errorf("Voxel = %v, want (1,2,3)", v)
	}
	if v.Round() != geom.Vox(1, 2, 3) {
		t.Errorf("Round = %v, want (1,2,3)", v.Round())
	}
	if g.WorldOf(geom.Vox(1, 2, 3)) != want {
		t.Errorf("WorldOf = %v, want %v", g.WorldOf(geom.Vox(1, 2, 3)), want)
	}
	if g.IndexOf(geom.Vox(1, 2, 3)) != g.Index(1, 2, 3) {
		t.Error("IndexOf disagrees with Index")
	}
	if !g.Contains(geom.Vox(1, 2, 3)) || g.Contains(geom.Vox(-1, 0, 0)) {
		t.Error("Contains disagrees with InBounds")
	}
}

func TestGridCenter(t *testing.T) {
	g := NewGrid(3, 3, 3, 2)
	if c := g.Center(); c != geom.V(2, 2, 2) {
		t.Errorf("Center = %v, want (2,2,2)", c)
	}
}

func TestGridValidate(t *testing.T) {
	if err := NewGrid(4, 4, 4, 1).Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
	if err := NewGrid(0, 4, 4, 1).Validate(); err == nil {
		t.Error("zero-dim grid accepted")
	}
	for _, tc := range []struct {
		name string
		edit func(g *Grid)
	}{
		{"negative spacing", func(g *Grid) { g.Spacing.Y = -1 }},
		{"NaN spacing", func(g *Grid) { g.Spacing.X = math.NaN() }},
		{"+Inf spacing", func(g *Grid) { g.Spacing.Z = math.Inf(1) }},
		{"NaN origin", func(g *Grid) { g.Origin.Y = math.NaN() }},
		{"-Inf origin", func(g *Grid) { g.Origin.X = math.Inf(-1) }},
	} {
		bad := NewGrid(4, 4, 4, 1)
		tc.edit(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestInBounds(t *testing.T) {
	g := NewGrid(2, 3, 4, 1)
	if !g.InBounds(0, 0, 0) || !g.InBounds(1, 2, 3) {
		t.Error("corner voxels reported out of bounds")
	}
	for _, c := range [][3]int{{-1, 0, 0}, {2, 0, 0}, {0, 3, 0}, {0, 0, 4}} {
		if g.InBounds(c[0], c[1], c[2]) {
			t.Errorf("voxel %v reported in bounds", c)
		}
	}
}
