package fem

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/edt"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/volume"
)

// rasterizeWide is the candidate loop rasterize replaced, kept as its
// oracle: every voxel of floor(lo)..floor(hi)+1 per axis is tested, 27
// an element at one cell per voxel.
func rasterizeWide(s *System, g volume.Grid, fn func(i, j, k int, nodes [4]int32, w [4]float64)) {
	m := s.Mesh
	for e := range m.Tets {
		t := m.TetGeom(e)
		sc, err := t.Shape()
		if err != nil {
			continue
		}
		lo, hi := t.P[0], t.P[0]
		for _, p := range t.P[1:] {
			lo = geom.V(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z))
			hi = geom.V(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z))
		}
		vlo, vhi := g.Voxel(lo).Floor(), g.Voxel(hi).Floor()
		for k := maxInt(vlo.K, 0); k <= minInt(vhi.K+1, g.NZ-1); k++ {
			for j := maxInt(vlo.J, 0); j <= minInt(vhi.J+1, g.NY-1); j++ {
				for i := maxInt(vlo.I, 0); i <= minInt(vhi.I+1, g.NX-1); i++ {
					p := g.World(i, j, k)
					var w [4]float64
					inside := true
					for a := 0; a < 4; a++ {
						if w[a] = sc.Eval(a, p); w[a] < -1e-9 {
							inside = false
							break
						}
					}
					if inside {
						fn(i, j, k, m.Tets[e], w)
					}
				}
			}
		}
	}
}

// visit is one accepted (voxel, element) pair.
type visit struct {
	idx   int
	nodes [4]int32
	w     [4]float64
}

// TestRasterizeMatchesWideBoxOracle: the tight candidate box accepts the
// same (voxel, element) pairs in the same order as the wide one, so the
// interpolation table and the displacement field built from them — "last
// element wins" included — are the wide box's bit for bit.
func TestRasterizeMatchesWideBoxOracle(t *testing.T) {
	g := volume.Grid{NX: 13, NY: 12, NZ: 11, Spacing: geom.V(0.9, 1.25, 2.1), Origin: geom.V(-31.5, 7.25, 120)}
	l := volume.NewLabels(g)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if d := geom.V(float64(i)-6, float64(j)-5.5, float64(k)-5); d.Norm() < 5.2 {
					l.Set(i, j, k, volume.LabelBrain)
				}
			}
		}
	}
	inBrain := func(lab volume.Label) bool { return lab == volume.LabelBrain }
	for _, cs := range []int{1, 2, 3} {
		for _, snap := range []bool{false, true} {
			m, err := mesh.FromLabels(l, mesh.Options{CellSize: cs})
			if err != nil {
				t.Fatal(err)
			}
			if snap {
				surf, err := m.ExtractSurface(inBrain)
				if err != nil {
					t.Fatal(err)
				}
				if m.SnapToLevelSet(surf.NodeID, edt.SignedOfSet(l, inBrain, 0), float64(cs)) == 0 {
					t.Fatalf("cs=%d: snapping moved no node", cs)
				}
				m.Smooth(3, 0.5)
			}
			sys := &System{Mesh: m}
			var got, want []visit
			rasterize(sys.Mesh, g, func(i, j, k int, nodes [4]int32, w [4]float64) {
				got = append(got, visit{g.Index(i, j, k), nodes, w})
			})
			rasterizeWide(sys, g, func(i, j, k int, nodes [4]int32, w [4]float64) {
				want = append(want, visit{g.Index(i, j, k), nodes, w})
			})
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("cs=%d snap=%v: %d accepted pairs, wide box %d, or a different order", cs, snap, len(got), len(want))
			}

			// The table and the field, rebuilt from the oracle's visits.
			nodeU := make([]geom.Vec3, m.NumNodes())
			for n, p := range m.Nodes {
				nodeU[n] = geom.V(0.03*p.Y, -0.02*p.Z+0.1, 0.01*p.X*p.Y)
			}
			vox, nodes, w, field := oracleInterp(want, g, nodeU)
			_, gotVox, gotNodes, gotW := sys.BuildInterpTable(g).TableParts()
			if !reflect.DeepEqual(gotVox, vox) || !reflect.DeepEqual(gotNodes, nodes) || !reflect.DeepEqual(gotW, w) {
				t.Errorf("cs=%d snap=%v: interpolation table differs from the wide-box oracle's", cs, snap)
			}
			if !reflect.DeepEqual(sys.DisplacementField(nodeU, g), field) {
				t.Errorf("cs=%d snap=%v: displacement field differs from the wide-box oracle's", cs, snap)
			}
		}
	}
}

// oracleInterp rebuilds, from the oracle's accepted visits, the
// interpolation table's arrays and the displacement field of nodeU.
func oracleInterp(visits []visit, g volume.Grid, nodeU []geom.Vec3) (vox, nodes []int32, w []float64, field *volume.Field) {
	field = volume.NewField(g)
	last := map[int]visit{}
	for _, v := range visits {
		if _, seen := last[v.idx]; !seen {
			vox = append(vox, int32(v.idx))
		}
		last[v.idx] = v
		var d geom.Vec3
		for a := 0; a < 4; a++ {
			d = d.Add(nodeU[v.nodes[a]].Scale(v.w[a]))
		}
		field.DX[v.idx], field.DY[v.idx], field.DZ[v.idx] = float32(d.X), float32(d.Y), float32(d.Z)
	}
	for _, idx := range vox {
		v := last[int(idx)]
		nodes = append(nodes, v.nodes[:]...)
		w = append(w, v.w[:]...)
	}
	return vox, nodes, w, field
}
