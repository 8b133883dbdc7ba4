package fem

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/phantom"
	"repro/internal/sparse"
	"repro/internal/volume"
)

// The per-element path the shape memos, the merge scatter and the
// marker dedupe replaced is kept as their oracle: referenceStiffness
// (one elementStiffness per element, summed by sparse.Builder),
// oracleNodeAdjacency, Tet.Shape per element through rasterizeWide, and
// fusedDirichlet for the elimination.

// oracleNodeAdjacency sorts and compacts every node's whole bucket of
// incident element nodes.
func oracleNodeAdjacency(m *mesh.Mesh) (ptr []int, adj []int32) {
	buckets := make([][]int32, m.NumNodes())
	for _, t := range m.Tets {
		for _, a := range t {
			buckets[a] = append(buckets[a], t[:]...)
		}
	}
	ptr = make([]int, m.NumNodes()+1)
	for n, b := range buckets {
		slices.Sort(b)
		adj = append(adj, slices.Compact(b)...)
		ptr[n+1] = len(adj)
	}
	return ptr, adj
}

// oracleFlops is the per-rank assembly work the counters model: a full
// element stiffness per element a rank visits, plus its scatter.
func oracleFlops(m *mesh.Mesh, pt par.Partition) []float64 {
	flops := make([]float64, pt.P)
	for r := range flops {
		lo, hi := pt.Range(r)
		for _, t := range m.Tets {
			owned := 0
			for _, n := range t {
				if int(n) >= lo && int(n) < hi {
					owned++
				}
			}
			if owned > 0 {
				flops[r] += elementStiffnessFlops + float64(36*owned)
			}
		}
	}
	return flops
}

// exactnessMesh is one mesh of the exactness suite, with the grid its
// labels live on and the node set a registration eliminates.
type exactnessMesh struct {
	name string
	m    *mesh.Mesh
	grid volume.Grid
	surf []int32
	// irregular marks a mesh with more shapes than a memo holds.
	irregular bool
}

// exactnessMeshes: phantom lattices of both meshers, where a few shapes
// repeat over the whole mesh and the memos hit; and both lattices on a
// grid whose spacing and origin are off powers of two, so rounding gives
// one shape's differences several last bits. Off that grid the Kuhn
// lattice still repeats its shapes often enough for the memos to stay
// on at capacity, while the BCC lattice's elements mostly differ and the
// memos turn themselves off.
func exactnessMeshes(t *testing.T) []exactnessMesh {
	t.Helper()
	size := 20
	if testing.Short() {
		size = 14
	}
	p := phantom.DefaultParams(size)
	labels := phantom.GenerateLabels(phantom.GridFor(p), p)
	offGrid := *labels
	offGrid.Grid.Spacing, offGrid.Grid.Origin = geom.V(0.9, 1.1, 1.3), geom.V(-31.37, 7.21, 120.3)
	tissue := func(lab volume.Label) bool { return lab != volume.LabelBackground }
	var out []exactnessMesh
	for _, c := range []struct {
		name   string
		labels *volume.Labels
		mesher func(*volume.Labels, mesh.Options) (*mesh.Mesh, error)
	}{
		{"FromLabels", labels, mesh.FromLabels},
		{"FromLabelsBCC", labels, mesh.FromLabelsBCC},
		{"OffGridBCC", &offGrid, mesh.FromLabelsBCC},
		{"OffGrid", &offGrid, mesh.FromLabels},
	} {
		m, err := c.mesher(c.labels, mesh.Options{CellSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		surf, err := m.ExtractSurface(tissue)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, exactnessMesh{c.name, m, c.labels.Grid, surf.NodeID, c.labels == &offGrid})
	}
	return out
}

// distinctShapes is the set of element shapes of m: distinct shape keys.
func distinctShapes(m *mesh.Mesh) map[shapeKey]bool {
	seen := map[shapeKey]bool{}
	for e := range m.Tets {
		var key shapeKey
		t := m.TetGeom(e)
		putShapeKey(key[:], &t)
		seen[key] = true
	}
	return seen
}

// TestMemoizedBuildMatchesPerElementOracle: on every mesh of the suite,
// with both material tables and for 1, 2, 3 and 7 ranks, the memoized,
// merge-scattered assembly and the rank-parallel elimination give the
// per-element oracle's bits — node adjacency, K, the per-rank assembly
// counters, the eliminated K, the patched right-hand side and the
// coupling block — and the memoized shape functions give its
// interpolation table. The lattices' shapes fit
// in one memo (the benchmark mesh has six); the off-grid lattices have
// more than a memo holds.
func TestMemoizedBuildMatchesPerElementOracle(t *testing.T) {
	ranks := []int{1, 2, 3, 7}
	for _, c := range exactnessMeshes(t) {
		t.Run(c.name, func(t *testing.T) {
			m := c.m
			keys := distinctShapes(m)
			shapes := len(keys)
			sm := new(shapeMemo)
			for e := range m.Tets {
				tet := m.TetGeom(e)
				_, _ = sm.shape(&tet)
			}
			t.Logf("%d elements, %d distinct shapes, memo off: %v", m.NumTets(), shapes, sm.off)
			if c.irregular == (shapes <= 1<<memoBits) {
				t.Errorf("%d shapes, irregular=%v: the suite must have meshes on both sides of a memo's capacity", shapes, c.irregular)
			}
			// The suite runs the memo on (hitting, and at capacity on the
			// off-grid Kuhn lattice) and off (the off-grid BCC lattice
			// mostly misses).
			if sm.off != (c.name == "OffGridBCC") {
				t.Errorf("memo off: %v after a pass over %d shapes", sm.off, shapes)
			}
			// On the benchmark's mesher no shape evicts another: the memo
			// computes each once.
			if c.name == "FromLabels" {
				for _, k := range sm.keys {
					delete(keys, k)
				}
				if len(keys) != 0 {
					t.Errorf("%d of %d shapes were evicted", len(keys), shapes)
				}
			}
			wantPtr, wantAdj := oracleNodeAdjacency(m)
			for _, r := range ranks {
				if ptr, adj := nodeAdjacency(m, par.Even(m.NumNodes(), r)); !slices.Equal(ptr, wantPtr) || !slices.Equal(adj, wantAdj) {
					t.Errorf("%d ranks: node adjacency differs from the oracle's", r)
				}
			}

			bc := map[int32]geom.Vec3{}
			for i, node := range c.surf {
				bc[node] = geom.V(0.37*float64(i%7)-1.1, math.Copysign(0, float64(i%2)-0.5), 1e-3/float64(1+i%5))
			}
			for _, mats := range []struct {
				name string
				t    Table
			}{{"homogeneous", HomogeneousBrain()}, {"heterogeneous", HeterogeneousBrain()}} {
				wantK := referenceStiffness(t, m, mats.t)
				var (
					wantF, wantCoef []float64
					wantElim        *sparse.CSR
					wantPtr         []int
					wantRows        []int32
				)
				for _, r := range ranks {
					pt := par.Even(m.NumNodes(), r)
					sys, err := AssembleContext(context.Background(), m, mats.t, pt)
					if err != nil {
						t.Fatal(err)
					}
					k := sys.K
					if !slices.Equal(k.RowPtr, wantK.RowPtr) || !slices.Equal(k.Col, wantK.Col) || !sameBits(k.Val, wantK.Val) {
						t.Fatalf("%s, %d ranks: K differs from the per-element oracle's", mats.name, r)
					}
					if want := oracleFlops(m, pt); !slices.Equal(sys.Assembly.Flops, want) {
						t.Errorf("%s, %d ranks: assembly counters %v, oracle %v", mats.name, r, sys.Assembly.Flops, want)
					}
					if err := sys.AddBodyForce(geom.V(3, -7, -40), nil); err != nil {
						t.Fatal(err)
					}
					if wantF == nil {
						wantF = slices.Clone(sys.F)
						wantElim, wantPtr, wantRows, wantCoef = fusedDirichlet(k, wantF, bc)
					}
					op, err := sys.Eliminate(c.surf)
					if err != nil {
						t.Fatal(err)
					}
					forked := op.NewSystem(m)
					copy(forked.F, sys.F)
					if _, err := forked.PatchDirichlet(context.Background(), bc); err != nil {
						t.Fatal(err)
					}
					if k, w := forked.K, wantElim; !slices.Equal(k.RowPtr, w.RowPtr) || !slices.Equal(k.Col, w.Col) || !sameBits(k.Val, w.Val) {
						t.Errorf("%s, %d ranks: eliminated K differs from the fused elimination's", mats.name, r)
					}
					if !sameBits(forked.F, wantF) {
						t.Errorf("%s, %d ranks: right-hand side differs from the fused elimination's", mats.name, r)
					}
					if !slices.Equal(forked.bcPtr, wantPtr) || !slices.Equal(forked.bcRows, wantRows) || !sameBits(forked.bcCoef, wantCoef) {
						t.Errorf("%s, %d ranks: coupling block differs from the fused elimination's", mats.name, r)
					}
				}
			}

			var visits []visit
			rasterizeWide(&System{Mesh: m}, c.grid, func(i, j, k int, nodes [4]int32, w [4]float64) {
				visits = append(visits, visit{c.grid.Index(i, j, k), nodes, w})
			})
			vox, nodes, w, _ := oracleInterp(visits, c.grid, make([]geom.Vec3, m.NumNodes()))
			_, gotVox, gotNodes, gotW := BuildInterpTable(m, c.grid).TableParts()
			if len(vox) == 0 || !reflect.DeepEqual(gotVox, vox) || !reflect.DeepEqual(gotNodes, nodes) || !reflect.DeepEqual(gotW, w) {
				t.Errorf("interpolation table differs from the per-element oracle's (%d voxels, oracle %d)", len(gotVox), len(vox))
			}
		})
	}
}

// TestShapeMemosSeparateNearCollisions: inputs that share the bits of
// all but one part of the key get, each, the bits of their own
// Tet.Shape and elementStiffness from one memo — for each of the five
// vertex differences, two elements that differ in it alone (one vertex
// nudged next to one vertex and far from the other, so only its
// difference to the near one keeps the nudge), and, for each Lamé
// parameter, two materials that differ in it alone. A lattice repeats
// whole shapes and the material tables differ in both parameters, so
// only inputs like these tell a key short of one part from the full one.
func TestShapeMemosSeparateNearCollisions(t *testing.T) {
	// x holds the four vertices' x coordinates; vertex nudge moves by
	// 2^-45, which the differences near 0.25 keep and those near 1024
	// round away. y and z keep every element non-degenerate.
	for _, c := range []struct {
		diff  string
		x     [4]float64
		nudge int
	}{
		{"P1-P0", [4]float64{1, 0.75, 1024, -1024}, 1},
		{"P2-P0", [4]float64{1, 1024, 0.75, 0}, 2},
		{"P3-P0", [4]float64{1, 1024, 0, 0.75}, 3},
		{"P2-P1", [4]float64{1024, 1, 0.75, 0}, 2},
		{"P3-P1", [4]float64{1024, 1, 0, 0.75}, 3},
	} {
		var tets [2]geom.Tet
		for i := range tets {
			x := c.x
			if i == 1 {
				x[c.nudge] += 0x1p-45
			}
			tets[i].P = [4]geom.Vec3{geom.V(x[0], 0, 0), geom.V(x[1], 1, 0), geom.V(x[2], 0, 1), geom.V(x[3], 2, 3)}
		}
		// The setup: of the five differences, exactly one has other bits.
		differ := 0
		for _, ij := range [5][2]int{{1, 0}, {2, 0}, {3, 0}, {2, 1}, {3, 1}} {
			d0, d1 := tets[0].P[ij[0]].Sub(tets[0].P[ij[1]]), tets[1].P[ij[0]].Sub(tets[1].P[ij[1]])
			if !sameBits([]float64{d0.X, d0.Y, d0.Z}, []float64{d1.X, d1.Y, d1.Z}) {
				differ++
			}
		}
		if differ != 1 {
			t.Fatalf("%s: the two elements differ in %d vertex differences, want 1", c.diff, differ)
		}
		checkMemos(t, c.diff, tets[:], []Material{HomogeneousBrain().Default})
	}
	// (lambda, mu) = (1, 1), (0, 1) and (1, 3), all exact.
	tet := geom.Tet{P: [4]geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(0, 0, 1)}}
	checkMemos(t, "Lamé pair", []geom.Tet{tet}, []Material{{E: 2.5, Nu: 0.25}, {E: 2, Nu: 0}, {E: 6.75, Nu: 0.125}})
}

// checkMemos runs every element in every material, in order, through
// one shape memo and one stiffness memo, and compares each result with
// Tet.Shape's and elementStiffness's bits.
func checkMemos(t *testing.T, what string, tets []geom.Tet, mats []Material) {
	t.Helper()
	sm, km := new(shapeMemo), new(stiffnessMemo)
	for i := range tets {
		for _, mat := range mats {
			want, err := tets[i].Shape()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := sm.shape(&tets[i]); err != nil || !sameBits(shapeValues(got), shapeValues(want)) {
				t.Errorf("%s, element %d: memoized shape differs from Tet.Shape", what, i)
			}
			wantK, err := elementStiffness(tets[i], mat)
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := km.stiffness(&tets[i], mat)
			if err != nil || !sameBits(stiffnessValues(&gotK.k), stiffnessValues(&wantK)) || gotK.mask != blockMasks(&wantK) {
				t.Errorf("%s, element %d, %+v: memoized stiffness differs from elementStiffness", what, i, mat)
			}
		}
	}
}

// shapeValues lists every coefficient of sc and its 6V.
func shapeValues(sc geom.ShapeCoeffs) []float64 {
	return append(append(append(append(sc.A[:], sc.B[:]...), sc.C[:]...), sc.D[:]...), sc.Vol6)
}

// stiffnessValues lists every entry of k.
func stiffnessValues(k *[4][4][3][3]float64) []float64 {
	var out []float64
	for a := range k {
		for b := range k[a] {
			for i := range k[a][b] {
				out = append(out, k[a][b][i][:]...)
			}
		}
	}
	return out
}

// TestShapeMemosAllocateNothing: a lookup, hit or miss, allocates
// nothing — the memos sit inside the assembly's //lint:hotpath loop.
func TestShapeMemosAllocateNothing(t *testing.T) {
	m := exactnessMeshes(t)[2].m // off-grid BCC: mostly misses
	sm, km := new(shapeMemo), new(stiffnessMemo)
	mat := HeterogeneousBrain().Default
	e := 0
	allocs := testing.AllocsPerRun(2*m.NumTets(), func() {
		tet := m.TetGeom(e % m.NumTets())
		e++
		if _, err := sm.shape(&tet); err != nil {
			t.Fatal(err)
		}
		if _, err := km.stiffness(&tet, mat); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per lookup", allocs)
	}
}
