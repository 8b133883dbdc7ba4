package volume

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The implementations Field.SampleWorld and Field.Invert replaced, kept
// as their oracles.

// sampleVoxelStraight is the monolithic Scalar.SampleVoxel: one cell
// lookup and the eight-corner blend written out.
func sampleVoxelStraight(g Grid, d []float32, x, y, z float64) float64 {
	if x < 0 || y < 0 || z < 0 ||
		x > float64(g.NX-1) || y > float64(g.NY-1) || z > float64(g.NZ-1) {
		return 0
	}
	i0 := min(max(int(x), 0), g.NX-2)
	j0 := min(max(int(y), 0), g.NY-2)
	k0 := min(max(int(z), 0), g.NZ-2)
	fx, fy, fz := x-float64(i0), y-float64(j0), z-float64(k0)
	idx := g.Index(i0, j0, k0)
	nx, nxy := g.NX, g.NX*g.NY
	c000, c100 := float64(d[idx]), float64(d[idx+1])
	c010, c110 := float64(d[idx+nx]), float64(d[idx+nx+1])
	c001, c101 := float64(d[idx+nxy]), float64(d[idx+nxy+1])
	c011, c111 := float64(d[idx+nxy+nx]), float64(d[idx+nxy+nx+1])
	c00 := c000 + fx*(c100-c000)
	c10 := c010 + fx*(c110-c010)
	c01 := c001 + fx*(c101-c001)
	c11 := c011 + fx*(c111-c011)
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return c0 + fz*(c1-c0)
}

// sampleWorldThreeCalls looks the cell up once per component.
func sampleWorldThreeCalls(f *Field, p geom.Vec3) geom.Vec3 {
	v := f.Grid.Voxel(p)
	return geom.V(
		sampleVoxelStraight(f.Grid, f.DX, v.X, v.Y, v.Z),
		sampleVoxelStraight(f.Grid, f.DY, v.X, v.Y, v.Z),
		sampleVoxelStraight(f.Grid, f.DZ, v.X, v.Y, v.Z),
	)
}

// invertFixedIterations runs every iteration at every voxel.
func invertFixedIterations(f *Field, iterations int) *Field {
	g := f.Grid
	out := NewField(g)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				q := g.World(i, j, k)
				var v geom.Vec3
				for it := 0; it < iterations; it++ {
					v = sampleWorldThreeCalls(f, q.Add(v)).Scale(-1)
				}
				out.Set(i, j, k, v)
			}
		}
	}
	return out
}

// smoothRandomField is a few-voxel-scale random displacement, up to
// about two voxels, zero outside a central ball — the shape of a brain
// shift: most voxels carry no displacement at all.
func smoothRandomField(seed int64) *Field {
	g := Grid{NX: 17, NY: 15, NZ: 13, Spacing: geom.V(0.9, 1.1, 1.7), Origin: geom.V(-12, 30.5, 4)}
	rng := rand.New(rand.NewSource(seed))
	f := NewField(g)
	for _, d := range [][]float32{f.DX, f.DY, f.DZ} {
		s := NewScalar(g)
		for i := range s.Data {
			s.Data[i] = float32(40 * rng.NormFloat64())
		}
		copy(d, s.SmoothGaussian(1.5).Data)
	}
	c := g.Center()
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if g.World(i, j, k).Dist(c) > 6 {
					f.Set(i, j, k, geom.Vec3{})
				}
			}
		}
	}
	return f
}

func sameBits32(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func TestSampleWorldMatchesThreeCallOracle(t *testing.T) {
	f := smoothRandomField(5)
	if f.MaxMagnitude() < 1 {
		t.Fatalf("test field too flat: max %v mm", f.MaxMagnitude())
	}
	g := f.Grid
	rng := rand.New(rand.NewSource(6))
	var pts []geom.Vec3
	for n := 0; n < 20000; n++ {
		// A third of these fall outside the grid.
		pts = append(pts, g.Origin.Add(geom.V(
			(rng.Float64()*1.4-0.2)*float64(g.NX-1)*g.Spacing.X,
			(rng.Float64()*1.4-0.2)*float64(g.NY-1)*g.Spacing.Y,
			(rng.Float64()*1.4-0.2)*float64(g.NZ-1)*g.Spacing.Z)))
	}
	// Voxel centres, the exact last planes and corner among them.
	for _, v := range [][3]int{{0, 0, 0}, {g.NX - 1, 3, 4}, {5, g.NY - 1, 2}, {7, 7, g.NZ - 1}, {g.NX - 1, g.NY - 1, g.NZ - 1}} {
		pts = append(pts, g.World(v[0], v[1], v[2]))
	}
	for _, p := range pts {
		got, want := f.SampleWorld(p), sampleWorldThreeCalls(f, p)
		if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
			math.Float64bits(got.Z) != math.Float64bits(want.Z) {
			t.Fatalf("SampleWorld(%v) = %v, three-call oracle %v", p, got, want)
		}
		// The scalar path shares the interpolation expression.
		s := &Scalar{Grid: g, Data: f.DX}
		if v := s.SampleWorld(p); math.Float64bits(v) != math.Float64bits(want.X) {
			t.Fatalf("Scalar.SampleWorld(%v) = %v, oracle %v", p, v, want.X)
		}
	}
}

func TestInvertMatchesFixedIterationOracle(t *testing.T) {
	f := smoothRandomField(7)
	for _, iterations := range []int{1, 4, 8} {
		got, want := f.Invert(iterations), invertFixedIterations(f, iterations)
		if !sameBits32(got.DX, want.DX) || !sameBits32(got.DY, want.DY) || !sameBits32(got.DZ, want.DZ) {
			t.Errorf("Invert(%d) differs from the fixed-iteration oracle", iterations)
		}
	}
}
