package fem

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// elementStiffness computes the 12x12 stiffness of a linear tetrahedral
// element as 3x3 nodal blocks:
//
//	K_ab[i][j] = V ( lambda g_a[i] g_b[j] + mu g_a[j] g_b[i]
//	                 + mu delta_ij (g_a . g_b) )
//
// where g_a is the gradient of shape function a (constant over the
// element) — the closed form of B^T D B for isotropic elasticity.
//
//lint:hotpath
//lint:noescape
func elementStiffness(t geom.Tet, mat Material) ([4][4][3][3]float64, error) {
	var k [4][4][3][3]float64
	sc, err := t.Shape()
	if err != nil {
		return k, err
	}
	vol := t.Volume()
	lambda, mu := mat.Lame()
	var g [4][3]float64
	for a := 0; a < 4; a++ {
		g[a][0] = sc.B[a]
		g[a][1] = sc.C[a]
		g[a][2] = sc.D[a]
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			dotAB := g[a][0]*g[b][0] + g[a][1]*g[b][1] + g[a][2]*g[b][2]
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					v := lambda*g[a][i]*g[b][j] + mu*g[a][j]*g[b][i]
					if i == j {
						v += mu * dotAB
					}
					k[a][b][i][j] = vol * v
				}
			}
		}
	}
	return k, nil
}

// elementStiffnessFlops estimates the floating point work of one
// element stiffness computation, for the performance counters.
const elementStiffnessFlops = 600

// System is an assembled linear elastic system K u = f over the mesh
// DOFs (3 per node: node n owns DOFs 3n..3n+2).
// The solver indexes F and Constrained by DOF without bounds slack
// (see checkShape).
type System struct {
	Mesh   *mesh.Mesh
	K      *sparse.CSR
	F      []float64
	NumDOF int
	// NodePart is the node partition used for assembly; the DOF
	// partition used by the solver is its 3x expansion.
	NodePart par.Partition
	// Assembly holds per-rank assembly work counters. Wall-clock
	// assembly time is observability, not state: the fem.assemble trace
	// span measures it, keeping the assembled System a deterministic
	// function of (mesh, materials, partition) — the property the
	// content-addressed preop-assemble cache stage rests on.
	Assembly *par.Counters
	// Constrained marks DOFs fixed by Dirichlet conditions.
	Constrained []bool

	// bcVal holds the currently prescribed value of each constrained DOF
	// (zero elsewhere). bcRows/bcCoef hold the stiffness coupling that
	// ApplyDirichlet moved to the right-hand side, column by column: the
	// original entries K0[i][j] of constrained DOF j against the
	// unconstrained rows i are bcCoef[bcPtr[j]:bcPtr[j+1]], with i
	// ascending in bcRows. Together they let PatchDirichlet update F for
	// changed boundary displacements without re-eliminating the matrix.
	bcVal  []float64
	bcPtr  []int
	bcRows []int32
	bcCoef []float64
	// nConstrained counts constrained DOFs, for the set-equality check
	// of PatchDirichlet.
	nConstrained int
	// pcCache keeps the factorized block-Jacobi preconditioner alive
	// across solves of the same stiffness matrix (keyed on CSR identity,
	// so any rebuild of K misses automatically).
	pcCache solver.PCCache
}

// checkShape validates the DOF-indexed array invariants.
func (s *System) checkShape() {
	if len(s.F) != s.NumDOF || len(s.Constrained) != s.NumDOF {
		panic(fmt.Sprintf("fem: inconsistent System shape: numDOF=%d len(F)=%d len(Constrained)=%d",
			s.NumDOF, len(s.F), len(s.Constrained)))
	}
}

// SystemFromParts reconstructs an assembled, unconstrained system from
// serialized parts (the core artifact codec's decode path): the
// stiffness matrix, load vector, node partition and assembly counters
// as assembly produced them, before any Dirichlet elimination. The mesh
// reference is left nil for the caller to re-link from its own
// artifact. Shape violations are reported as errors so a drifted blob
// fails decode instead of panicking.
func SystemFromParts(k *sparse.CSR, f []float64, pt par.Partition, counters *par.Counters) (*System, error) {
	if k == nil || counters == nil {
		return nil, errors.New("fem: system parts: nil matrix or counters")
	}
	if len(f) != k.N {
		return nil, fmt.Errorf("fem: system parts: load vector length %d, matrix order %d", len(f), k.N)
	}
	if 3*pt.N != k.N || len(pt.Starts) != pt.P+1 {
		return nil, fmt.Errorf("fem: system parts: node partition (N=%d, P=%d, starts=%d) does not cover %d DOFs",
			pt.N, pt.P, len(pt.Starts), k.N)
	}
	if counters.P != pt.P || len(counters.Flops) != pt.P ||
		len(counters.BytesSent) != pt.P || len(counters.Messages) != pt.P {
		return nil, fmt.Errorf("fem: system parts: counters for %d ranks, partition has %d", counters.P, pt.P)
	}
	s := &System{
		K:           k,
		F:           f,
		NumDOF:      k.N,
		NodePart:    pt,
		Assembly:    counters,
		Constrained: make([]bool, k.N),
	}
	s.checkShape()
	return s, nil
}

// ErrBoundarySetChanged reports that an incremental patch named a
// different constrained node set than the one eliminated by
// ApplyDirichlet; the caller must fall back to a full re-assembly.
var ErrBoundarySetChanged = errors.New("fem: Dirichlet boundary set changed; full re-assembly required")

// DOFPartition returns the row partition of the 3N-dimensional system
// corresponding to the node partition (contiguous, nodes*3).
func (s *System) DOFPartition() par.Partition {
	pt := s.NodePart
	starts := make([]int, pt.P+1)
	for i := range starts {
		starts[i] = pt.Starts[i] * 3
	}
	return par.Partition{N: pt.N * 3, P: pt.P, Starts: starts}
}

// Assemble builds the global stiffness matrix with a background
// context; see AssembleContext. Each rank assembles the matrix rows of
// the nodes it owns; an element spanning nodes of several ranks is
// visited by each of them (this duplicated element work, plus the
// varying node connectivity, is the paper's assembly load imbalance —
// it emerges from the data rather than being injected).
func Assemble(m *mesh.Mesh, mats Table, pt par.Partition) (*System, error) {
	return AssembleContext(context.Background(), m, mats, pt)
}

// AssembleContext is Assemble with telemetry: when the context carries
// an obs tracer, the assembly is wrapped in a "fem.assemble" span with
// the per-rank work snapshot (flops, max/mean imbalance) attached — the
// quantities the paper's load-balance discussion revolves around. The
// assembly itself is not cancellable (it is one bounded bulk-synchronous
// phase; the surrounding stage checks the context).
func AssembleContext(ctx context.Context, m *mesh.Mesh, mats Table, pt par.Partition) (sys *System, err error) {
	_, span := obs.StartSpan(ctx, obs.SpanFEMAssemble)
	defer func() { span.End(err) }()
	sys, err = assemble(m, mats, pt)
	if err == nil {
		snap := sys.Assembly.Snapshot()
		span.SetAttr("ranks", snap.Ranks)
		span.SetAttr("flops", snap.TotalFlops)
		span.SetAttr("max_rank_flops", snap.MaxFlops)
		span.SetAttr("imbalance", snap.Imbalance)
		span.SetAttr("elements", m.NumTets())
		span.SetAttr("nodes", m.NumNodes())
	}
	return sys, err
}

// assemble builds K in two phases, with no intermediate triplets: a
// symbolic pass fixes the 3x3-block layout from the node adjacency, a
// numeric pass has every rank sum its element blocks straight into the
// rows it owns, and the layout is then compacted to CSR (see DESIGN.md,
// "Two-phase assembly").
func assemble(m *mesh.Mesh, mats Table, pt par.Partition) (*System, error) {
	if err := mats.Validate(); err != nil {
		return nil, err
	}
	if pt.N != m.NumNodes() {
		return nil, fmt.Errorf("fem: partition over %d nodes, mesh has %d", pt.N, m.NumNodes())
	}
	blocks, err := sparse.NewBlockAssembler(nodeAdjacency(m, pt))
	if err != nil {
		return nil, fmt.Errorf("fem: node adjacency: %w", err)
	}
	counters := par.NewCounters(pt.P)
	errs := make([]error, pt.P)
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		var flops float64
		flops, errs[r] = assembleRows(m, mats, blocks, int32(lo), int32(hi))
		counters.AddFlops(r, flops)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	k, err := blocks.Compact(pt)
	if err != nil {
		return nil, err
	}
	nDOF := 3 * m.NumNodes()
	sys := &System{
		Mesh:        m,
		K:           k,
		F:           make([]float64, nDOF),
		NumDOF:      nDOF,
		NodePart:    pt,
		Assembly:    counters,
		Constrained: make([]bool, nDOF),
	}
	return sys, nil
}

// nodeAdjacency is the symbolic pass: for every node, the ascending list
// of the nodes it shares an element with (itself included), as offsets
// and one flat list. Each rank counts, buckets, sorts and dedupes the
// lists of its own nodes.
func nodeAdjacency(m *mesh.Mesh, pt par.Partition) (ptr []int, adj []int32) {
	ptr = make([]int, m.NumNodes()+1)
	local := make([][]int32, pt.P)
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		// start[n-lo] is where node n's bucket begins: four entries per
		// incident element.
		start := make([]int, hi-lo+1)
		for _, t := range m.Tets {
			for _, a := range t {
				if n := int(a); n >= lo && n < hi {
					start[n-lo+1] += 4
				}
			}
		}
		for i := 0; i < hi-lo; i++ {
			start[i+1] += start[i]
		}
		buf := make([]int32, start[hi-lo])
		fill := append([]int(nil), start[:hi-lo]...)
		for _, t := range m.Tets {
			for _, a := range t {
				if n := int(a); n >= lo && n < hi {
					copy(buf[fill[n-lo]:], t[:])
					fill[n-lo] += 4
				}
			}
		}
		// Dedupe in place: the write cursor never passes a bucket start.
		w := 0
		for n := lo; n < hi; n++ {
			bucket := buf[start[n-lo]:start[n-lo+1]]
			slices.Sort(bucket)
			deg := copy(buf[w:], slices.Compact(bucket))
			ptr[n+1] = deg
			w += deg
		}
		local[r] = buf[:w]
	})
	for n := 0; n < m.NumNodes(); n++ {
		ptr[n+1] += ptr[n]
	}
	adj = make([]int32, 0, ptr[m.NumNodes()])
	for _, l := range local {
		adj = append(adj, l...)
	}
	return ptr, adj
}

// assembleRows is the numeric pass of one rank, which owns the nodes
// [lo, hi): every element touching one of them is computed once and its
// blocks are added to the owned rows. An element spanning several ranks
// is computed by each (the paper's duplicated boundary work). Elements
// are visited in ascending order, so each entry of K is summed in element
// order whatever the partition. Returns the rank's flop count.
//
//lint:hotpath
func assembleRows(m *mesh.Mesh, mats Table, blocks *sparse.BlockAssembler, lo, hi int32) (flops float64, err error) {
	for e, t := range m.Tets {
		owned := 0
		for _, n := range t {
			if n >= lo && n < hi {
				owned++
			}
		}
		if owned == 0 {
			continue
		}
		ke, err := elementStiffness(m.TetGeom(e), mats.For(m.TetLabel[e]))
		if err != nil {
			return flops, fmt.Errorf("fem: element %d: %w", e, err)
		}
		// Counted locally and added once per rank: neighbouring ranks'
		// counter slots share a cache line.
		flops += elementStiffnessFlops + float64(36*owned)
		for a, na := range t {
			if na < lo || na >= hi {
				continue // row owned by another rank
			}
			for b, nb := range t {
				blocks.AddBlock(na, nb, &ke[a][b])
			}
		}
	}
	return flops, nil
}

// ApplyDirichlet constrains the three DOFs of each listed node to the
// given displacement. Rows of constrained DOFs are replaced by identity
// equations, and their coupling is moved to the right-hand side of the
// remaining equations ("substituting known values for equations in the
// original system", as the paper puts it). The stiffness matrix is
// rebuilt; call once with all conditions (a second call is an error).
//
// The eliminated coupling is retained on the System so that a later
// PatchDirichlet can re-prescribe displacements for the same node set
// without touching the matrix.
func (s *System) ApplyDirichlet(bc map[int32]geom.Vec3) error {
	if s.bcVal != nil {
		return fmt.Errorf("fem: ApplyDirichlet called twice; re-prescribe values with PatchDirichlet")
	}
	if len(bc) == 0 {
		return fmt.Errorf("fem: no boundary conditions given; system would be singular")
	}
	val := make([]float64, s.NumDOF)
	for node, d := range bc {
		if node < 0 || int(node) >= s.Mesh.NumNodes() {
			return fmt.Errorf("fem: boundary node %d out of range", node)
		}
		for i := 0; i < 3; i++ {
			dof := 3*int(node) + i
			s.Constrained[dof] = true
		}
		val[3*int(node)+0] = d.X
		val[3*int(node)+1] = d.Y
		val[3*int(node)+2] = d.Z
	}
	// Count-then-copy: the rows of K are already sorted, so elimination
	// only filters them. First size the eliminated matrix and every
	// constrained column's coupling list ...
	k := s.K
	rowPtr := make([]int64, s.NumDOF+1)
	bcPtr := make([]int, s.NumDOF+1)
	nc := 0
	for i := 0; i < s.NumDOF; i++ {
		kept := int64(1)
		if s.Constrained[i] {
			nc++
		} else {
			kept = 0
			for _, j := range k.Col[k.RowPtr[i]:k.RowPtr[i+1]] {
				if s.Constrained[j] {
					bcPtr[j+1]++
				} else {
					kept++
				}
			}
		}
		rowPtr[i+1] = rowPtr[i] + kept
	}
	for j := 0; j < s.NumDOF; j++ {
		bcPtr[j+1] += bcPtr[j]
	}
	// ... then fill both in one pass in row order, which leaves each
	// coupling list in ascending row order.
	bcRows := make([]int32, bcPtr[s.NumDOF])
	bcCoef := make([]float64, bcPtr[s.NumDOF])
	fill := append([]int(nil), bcPtr[:s.NumDOF]...)
	col := make([]int32, rowPtr[s.NumDOF])
	kval := make([]float64, rowPtr[s.NumDOF])
	for i := 0; i < s.NumDOF; i++ {
		w := rowPtr[i]
		if s.Constrained[i] {
			col[w], kval[w] = int32(i), 1
			s.F[i] = val[i]
			continue
		}
		start, end := k.RowPtr[i], k.RowPtr[i+1]
		vals := k.Val[start:end]
		cols := k.Col[start:end][:len(vals)]
		for p, v := range vals {
			j := cols[p]
			if s.Constrained[j] {
				s.F[i] -= v * val[j]
				q := fill[j]
				bcRows[q], bcCoef[q] = int32(i), v
				fill[j] = q + 1
			} else {
				col[w], kval[w] = j, v
				w++
			}
		}
	}
	eliminated, err := sparse.CSRFromParts(s.NumDOF, rowPtr, col, kval)
	if err != nil {
		return fmt.Errorf("fem: eliminated matrix: %w", err)
	}
	s.K = eliminated
	s.bcVal = val
	s.bcPtr, s.bcRows, s.bcCoef = bcPtr, bcRows, bcCoef
	s.nConstrained = nc
	// The eliminated matrix is a new CSR, so the identity-keyed cache
	// would miss anyway; dropping the stale factors frees them now.
	s.pcCache.Invalidate()
	return nil
}

// PatchDirichlet re-prescribes the surface displacements of an already
// constrained system. The boundary node set must be exactly the set
// given to ApplyDirichlet (the incremental path re-evolves the same
// surface, so its vertex-to-node map is stable); a different set
// returns ErrBoundarySetChanged and leaves the system untouched.
//
// Only the right-hand side changes: for each DOF whose prescribed value
// moved by delta, the retained coupling updates the unconstrained
// equations (F[i] -= K0[i][j]*delta) and the identity row is set to the
// new value. The stiffness matrix — and with it the cached
// preconditioner factors — stays valid. Returns the number of DOFs
// whose value actually changed.
func (s *System) PatchDirichlet(ctx context.Context, bc map[int32]geom.Vec3) (changed int, err error) {
	_, span := obs.StartSpan(ctx, obs.SpanFEMPatchBC)
	defer func() { span.End(err) }()
	if s.bcVal == nil {
		return 0, fmt.Errorf("fem: PatchDirichlet before ApplyDirichlet: %w", ErrBoundarySetChanged)
	}
	if 3*len(bc) != s.nConstrained {
		return 0, fmt.Errorf("fem: %d boundary nodes, eliminated system has %d: %w",
			len(bc), s.nConstrained/3, ErrBoundarySetChanged)
	}
	for node := range bc {
		if node < 0 || int(node) >= s.Mesh.NumNodes() || !s.Constrained[3*int(node)] {
			return 0, fmt.Errorf("fem: node %d not constrained by the baseline solve: %w",
				node, ErrBoundarySetChanged)
		}
	}
	// Iterate in DOF order, not map order: a free row coupled to several
	// moving boundary DOFs accumulates several -= terms into F, and float
	// accumulation must run in a fixed order for the bit-reproducible
	// re-solves the warm-start equality tests assume.
	for dof, con := range s.Constrained {
		if !con {
			continue
		}
		d, ok := bc[int32(dof/3)]
		if !ok {
			continue
		}
		var v float64
		switch dof % 3 {
		case 0:
			v = d.X
		case 1:
			v = d.Y
		default:
			v = d.Z
		}
		delta := v - s.bcVal[dof]
		if numeric.Zero(delta) {
			continue
		}
		// Re-slicing coef to rows' length proves the two stride together,
		// eliminating the coef[p] bounds check (cf. sparse.MulVec).
		rows := s.bcRows[s.bcPtr[dof]:s.bcPtr[dof+1]]
		coef := s.bcCoef[s.bcPtr[dof]:s.bcPtr[dof+1]][:len(rows)]
		for p, row := range rows {
			s.F[row] -= coef[p] * delta
		}
		s.F[dof] = v
		s.bcVal[dof] = v
		changed++
	}
	span.SetAttr("dofs_changed", changed)
	span.SetAttr("dofs_constrained", s.nConstrained)
	obs.Emit(ctx, obs.EventFEMPatch, map[string]any{
		"dofs_changed":     changed,
		"dofs_constrained": s.nConstrained,
	})
	return changed, nil
}

// ConstrainedPerRank returns, for the DOF partition, how many of each
// rank's rows are Dirichlet-constrained — the paper's second load
// imbalance ("the distribution of surface displacements is not equal
// across CPUs").
func (s *System) ConstrainedPerRank() []int {
	pt := s.DOFPartition()
	out := make([]int, pt.P)
	for r := 0; r < pt.P; r++ {
		lo, hi := pt.Range(r)
		for i := lo; i < hi; i++ {
			if s.Constrained[i] {
				out[r]++
			}
		}
	}
	return out
}

// NodeDisplacements reshapes a DOF solution vector into per-node
// displacement vectors.
func (s *System) NodeDisplacements(u []float64) []geom.Vec3 {
	out := make([]geom.Vec3, s.Mesh.NumNodes())
	for n := range out {
		out[n] = geom.V(u[3*n], u[3*n+1], u[3*n+2])
	}
	return out
}
