package fem

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

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
// element stiffness computation, for the performance counters (which
// charge it per element visit, memo hit or not).
const elementStiffnessFlops = 600

// Operator is the read-only half of a linear elastic system K u = f
// over the mesh DOFs (3 per node: node n owns DOFs 3n..3n+2): the
// stiffness matrix and, once Eliminate has constrained a node set, the
// coupling it moved out of the matrix. Nothing writes an Operator after
// its constructor returns, so one may be shared by any number of
// Systems (the artifact store hands the preoperative one to every
// session in the process); the factorized preconditioner is built once
// per Operator and shared with it. The solver indexes Constrained by
// DOF without bounds slack (see checkShape).
type Operator struct {
	K      *sparse.CSR
	NumDOF int
	// NodePart is the node partition used for assembly; the DOF
	// partition used by the solver is its 3x expansion.
	NodePart par.Partition
	// Constrained marks DOFs fixed by Dirichlet conditions.
	Constrained []bool

	// bcRows/bcCoef hold the stiffness coupling that Eliminate moved out
	// of the matrix, column by column: the original entries K0[i][j] of
	// constrained DOF j against the unconstrained rows i are
	// bcCoef[bcPtr[j]:bcPtr[j+1]], with i ascending in bcRows. They let
	// PatchDirichlet prescribe boundary displacements through the
	// right-hand side alone. bcPtr is nil before Eliminate.
	bcPtr  []int
	bcRows []int32
	bcCoef []float64
	// nConstrained counts constrained DOFs, for the set-equality check
	// of PatchDirichlet.
	nConstrained int
	// pc is the block-Jacobi ILU(0) factor of K on DOFPartition(), built
	// by the first solve of any System on this Operator (see
	// preconditioner); K never changes, so neither does the factor.
	pcOnce sync.Once
	pc     *solver.BlockJacobiPC
	pcErr  error
}

// System is an Operator with the state one session solves on: the
// right-hand side and the currently prescribed boundary values. The
// solver indexes F by DOF without bounds slack (see checkShape).
type System struct {
	*Operator
	Mesh *mesh.Mesh
	F    []float64
	// Assembly is the per-rank work of the assembly that built this
	// System (AssembleContext); nil on a System forked off an Operator,
	// which ran no assembly. The fem.assemble span states the same
	// counters, once per assembly.
	Assembly *par.Counters
	// bcVal holds the currently prescribed value of each constrained DOF
	// (zero elsewhere); nil until the Operator is an eliminated one.
	bcVal []float64
}

// checkShape validates the DOF-indexed array invariants.
func (o *Operator) checkShape() {
	if o.K.N != o.NumDOF || len(o.Constrained) != o.NumDOF || o.bcPtr != nil && len(o.bcPtr) != o.NumDOF+1 {
		panic(fmt.Sprintf("fem: inconsistent Operator shape: numDOF=%d K.N=%d len(Constrained)=%d len(bcPtr)=%d",
			o.NumDOF, o.K.N, len(o.Constrained), len(o.bcPtr)))
	}
}

// checkShape validates the DOF-indexed array invariants.
func (s *System) checkShape() {
	s.Operator.checkShape()
	if len(s.F) != s.NumDOF || s.bcVal != nil && len(s.bcVal) != s.NumDOF {
		panic(fmt.Sprintf("fem: inconsistent System shape: numDOF=%d len(F)=%d len(bcVal)=%d",
			s.NumDOF, len(s.F), len(s.bcVal)))
	}
}

// NewSystem forks a session's System off a shared Operator: a zero
// right-hand side and, on an eliminated Operator, zero prescribed
// values, which PatchDirichlet then moves to the scan's. m is the mesh
// the Operator was assembled on.
func (o *Operator) NewSystem(m *mesh.Mesh) *System {
	s := &System{Operator: o, Mesh: m, F: make([]float64, o.NumDOF)}
	if o.bcPtr != nil {
		s.bcVal = make([]float64, o.NumDOF)
	}
	s.checkShape()
	return s
}

// OperatorParts exposes the Dirichlet bookkeeping of an Operator for
// serialization (the core artifact codec); bcPtr is nil when nothing is
// eliminated. Callers must treat the slices as read-only.
func (o *Operator) OperatorParts() (bcPtr []int, bcRows []int32, bcCoef []float64) {
	return o.bcPtr, o.bcRows, o.bcCoef
}

// OperatorFromParts reconstructs an Operator from serialized parts (the
// core artifact codec's decode path): the stiffness matrix and node
// partition as assembly produced them, and the constrained set with its
// coupling block as Eliminate left them (nil bcPtr, no coupling and
// nothing constrained for an unconstrained one). Shape and index
// violations are reported as errors so a drifted blob fails decode
// instead of panicking in a patch.
func OperatorFromParts(k *sparse.CSR, pt par.Partition,
	constrained []bool, bcPtr []int, bcRows []int32, bcCoef []float64) (*Operator, error) {
	if k == nil {
		return nil, errors.New("fem: operator parts: nil matrix")
	}
	if 3*pt.N != k.N {
		return nil, fmt.Errorf("fem: operator parts: node partition of %d nodes for %d DOFs", pt.N, k.N)
	}
	if err := pt.Validate(pt.N); err != nil {
		return nil, fmt.Errorf("fem: operator parts: %w", err)
	}
	if len(constrained) != k.N {
		return nil, fmt.Errorf("fem: operator parts: %d constrained flags for %d DOFs", len(constrained), k.N)
	}
	o := &Operator{K: k, NumDOF: k.N, NodePart: pt, Constrained: constrained,
		bcPtr: bcPtr, bcRows: bcRows, bcCoef: bcCoef}
	for _, c := range constrained {
		if c {
			o.nConstrained++
		}
	}
	if bcPtr == nil {
		if o.nConstrained != 0 || len(bcRows) != 0 || len(bcCoef) != 0 {
			return nil, errors.New("fem: operator parts: constrained DOFs or coupling without column pointers")
		}
	} else if err := o.checkCoupling(); err != nil {
		return nil, err
	}
	o.checkShape()
	return o, nil
}

// checkCoupling validates what PatchDirichlet indexes by: column
// pointers that start at zero, never decrease and end at the coupling
// length, and per column ascending rows inside the matrix.
func (o *Operator) checkCoupling() error {
	if len(o.bcPtr) != o.NumDOF+1 || o.bcPtr[0] != 0 || o.bcPtr[o.NumDOF] != len(o.bcRows) || len(o.bcCoef) != len(o.bcRows) {
		return fmt.Errorf("fem: operator parts: %d column pointers over %d coupling rows and %d coefficients for %d DOFs",
			len(o.bcPtr), len(o.bcRows), len(o.bcCoef), o.NumDOF)
	}
	for j := 0; j < o.NumDOF; j++ {
		lo, hi := o.bcPtr[j], o.bcPtr[j+1]
		if lo > hi || hi > len(o.bcRows) {
			return fmt.Errorf("fem: operator parts: coupling pointers of DOF %d not monotone (%d, %d)", j, lo, hi)
		}
		for p := lo; p < hi; p++ {
			if row := o.bcRows[p]; row < 0 || int(row) >= o.NumDOF || p > lo && row <= o.bcRows[p-1] {
				return fmt.Errorf("fem: operator parts: coupling row %d of DOF %d out of range or order", row, j)
			}
		}
	}
	return nil
}

// ErrBoundarySetChanged reports that a patch named a different
// constrained node set than the one the Operator was eliminated on; the
// caller must fall back to a full re-assembly.
var ErrBoundarySetChanged = errors.New("fem: Dirichlet boundary set changed; full re-assembly required")

// DOFPartitionOf returns the row partition of the 3N-dimensional system
// that a node partition induces: rank r owns the three DOFs of each of
// its nodes, so a node's DOFs never split across ranks.
func DOFPartitionOf(nodes par.Partition) par.Partition {
	starts := make([]int, nodes.P+1)
	for i := range starts {
		starts[i] = nodes.Starts[i] * 3
	}
	return par.Partition{N: nodes.N * 3, P: nodes.P, Starts: starts}
}

// DOFPartition returns the row partition of the system induced by its
// node partition (DOFPartitionOf).
func (o *Operator) DOFPartition() par.Partition { return DOFPartitionOf(o.NodePart) }

// AssembleContext builds the global stiffness matrix. Each rank
// assembles the matrix rows of the nodes it owns; an element spanning
// nodes of several ranks is visited by each of them (this duplicated
// element work, plus the varying node connectivity, is the paper's
// assembly load imbalance — it emerges from the data rather than being
// injected). When the context carries an obs tracer, the assembly is
// wrapped in a "fem.assemble" span with the per-rank work snapshot
// (flops, max/mean imbalance) attached — the quantities the paper's
// load-balance discussion revolves around. The assembly itself is not
// cancellable (it is one bounded bulk-synchronous phase; the
// surrounding stage checks the context).
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
	op := &Operator{K: k, NumDOF: k.N, NodePart: pt, Constrained: make([]bool, k.N)}
	sys := op.NewSystem(m)
	sys.Assembly = counters
	return sys, nil
}

// nodeAdjacency is the symbolic pass: for every node, the ascending list
// of the nodes it shares an element with (itself included), as offsets
// and one flat list. Each rank counts and buckets the lists of its own
// nodes, dedupes each bucket with a marker and sorts what is left.
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
					*(*[4]int32)(buf[fill[n-lo]:]) = t
					fill[n-lo] += 4
				}
			}
		}
		// Dedupe in place: the write cursor never passes the read
		// cursor. seen[c] == n+1 once node n's list holds c.
		seen := make([]int32, m.NumNodes())
		w := 0
		for n := lo; n < hi; n++ {
			first := w
			for _, c := range buf[start[n-lo]:start[n-lo+1]] {
				if seen[c] != int32(n+1) {
					seen[c] = int32(n + 1)
					buf[w] = c
					w++
				}
			}
			slices.Sort(buf[first:w])
			ptr[n+1] = w - first
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
// [lo, hi): every element touching one of them has its block rows added
// to the owned rows. An element spanning several ranks is visited by
// each (the paper's duplicated boundary work). Elements are visited in
// ascending order, so each entry of K is summed in element order
// whatever the partition. Element stiffness comes from the rank's shape
// memo (see memo.go), so each distinct shape is computed once per rank;
// the returned flop count still charges every visit a full element
// stiffness — it models the per-element work of the paper's
// distributed assembly, which the cluster model and the scaling figures
// consume, rather than measuring this code.
//
//lint:hotpath
func assembleRows(m *mesh.Mesh, mats Table, blocks *sparse.BlockAssembler, lo, hi int32) (flops float64, err error) {
	memo := new(stiffnessMemo)
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
		tet := m.TetGeom(e)
		ke, err := memo.stiffness(&tet, mats.For(m.TetLabel[e]))
		if err != nil {
			return flops, fmt.Errorf("fem: element %d: %w", e, err)
		}
		// Counted locally and added once per rank: neighbouring ranks'
		// counter slots share a cache line.
		flops += elementStiffnessFlops + float64(36*owned)
		for a, na := range t {
			if na >= lo && na < hi { // else the row is another rank's
				blocks.AddBlock(na, &t, &ke.k[a], &ke.mask[a])
			}
		}
	}
	return flops, nil
}

// Eliminate returns the Operator with the three DOFs of each listed
// node constrained: rows of constrained DOFs are replaced by identity
// equations, and their coupling to the remaining equations leaves the
// matrix for the coupling block, from where PatchDirichlet moves it to
// a right-hand side ("substituting known values for equations in the
// original system", as the paper puts it) for whatever values a scan
// prescribes. The receiver is not modified, and the result shares
// nothing a later call writes. Eliminating twice is an error.
func (o *Operator) Eliminate(nodes []int32) (*Operator, error) {
	if o.bcPtr != nil {
		return nil, fmt.Errorf("fem: system already eliminated; re-prescribe values with PatchDirichlet")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fem: no boundary conditions given; system would be singular")
	}
	constrained := make([]bool, o.NumDOF)
	for _, node := range nodes {
		if node < 0 || int(node) >= o.NodePart.N {
			return nil, fmt.Errorf("fem: boundary node %d out of range", node)
		}
		for i := 0; i < 3; i++ {
			constrained[3*int(node)+i] = true
		}
	}
	// slot numbers the constrained columns in ascending order, so that
	// the per-rank counts below run over them only and keep the columns'
	// locality (the free columns' slots are unused).
	slot := make([]int32, o.NumDOF)
	nc := 0
	for j, c := range constrained {
		if c {
			slot[j] = int32(nc)
			nc++
		}
	}
	// Count-then-copy over the rank partition: the rows of K are already
	// sorted, so elimination only filters them. First each rank sizes its
	// rows of the eliminated matrix and counts, per constrained column,
	// its rows coupled to it ...
	k, pt := o.K, o.DOFPartition()
	rowPtr := make([]int64, o.NumDOF+1)
	fill := make([][]int, pt.P)
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		cnt := make([]int, nc)
		for i := lo; i < hi; i++ {
			kept := int64(1)
			if !constrained[i] {
				kept = 0
				for _, j := range k.Col[k.RowPtr[i]:k.RowPtr[i+1]] {
					if constrained[j] {
						cnt[slot[j]]++
					} else {
						kept++
					}
				}
			}
			rowPtr[i+1] = kept
		}
		fill[r] = cnt
	})
	for i := 0; i < o.NumDOF; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// ... then lay each coupling column out rank after rank, turning the
	// counts into each rank's first slot in it; the ranks own ascending
	// row ranges, so every column lists its rows in ascending order ...
	bcPtr := make([]int, o.NumDOF+1)
	for j, c := range slot {
		q := bcPtr[j]
		if constrained[j] {
			for _, cnt := range fill {
				q, cnt[c] = q+cnt[c], q
			}
		}
		bcPtr[j+1] = q
	}
	// ... and each rank copies its rows.
	bcRows := make([]int32, bcPtr[o.NumDOF])
	bcCoef := make([]float64, bcPtr[o.NumDOF])
	// make zeroes what it allocates, on the calling goroutine; at 76,041
	// equations that is a third of the elimination, so the matrix's two
	// arrays are allocated side by side.
	var col []int32
	var kval []float64
	par.Even(2, 2).ForEachRank(func(r int) {
		if r == 0 {
			col = make([]int32, rowPtr[o.NumDOF])
		} else {
			kval = make([]float64, rowPtr[o.NumDOF])
		}
	})
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		next := fill[r]
		for i := lo; i < hi; i++ {
			w := rowPtr[i]
			if constrained[i] {
				col[w], kval[w] = int32(i), 1
				continue
			}
			start, end := k.RowPtr[i], k.RowPtr[i+1]
			vals := k.Val[start:end]
			cols := k.Col[start:end][:len(vals)]
			for p, v := range vals {
				j := cols[p]
				if constrained[j] {
					c := slot[j]
					q := next[c]
					bcRows[q], bcCoef[q] = int32(i), v
					next[c] = q + 1
				} else {
					col[w], kval[w] = j, v
					w++
				}
			}
		}
	})
	eliminated, err := sparse.CSRFromParts(o.NumDOF, rowPtr, col, kval)
	if err != nil {
		return nil, fmt.Errorf("fem: eliminated matrix: %w", err)
	}
	op := &Operator{K: eliminated, NumDOF: o.NumDOF, NodePart: o.NodePart,
		Constrained: constrained, bcPtr: bcPtr, bcRows: bcRows, bcCoef: bcCoef, nConstrained: nc}
	op.checkShape()
	return op, nil
}

// ApplyDirichlet constrains the three DOFs of each listed node to the
// given displacement: it eliminates the node set (see Eliminate; the
// System moves to the eliminated Operator, its preconditioner unbuilt)
// and patches the values in from zero, which subtracts each free row's
// coupling terms from F in ascending constrained-column order — the
// order a fused elimination visits them in. Call once with all
// conditions (a second call is an error).
func (s *System) ApplyDirichlet(bc map[int32]geom.Vec3) error {
	nodes := make([]int32, 0, len(bc))
	for node := range bc {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes) // Eliminate takes a set; sorted so nothing downstream can see map order
	op, err := s.Operator.Eliminate(nodes)
	if err != nil {
		return err
	}
	s.Operator, s.bcVal = op, make([]float64, s.NumDOF)
	_, err = s.patch(bc)
	return err
}

// PatchDirichlet prescribes the surface displacements of a System on
// an eliminated Operator. The boundary node set must be exactly the set
// the Operator was eliminated on (every scan evolves the same surface,
// so its vertex-to-node map is stable); a different set returns
// ErrBoundarySetChanged and leaves the system untouched.
//
// Only the right-hand side changes: for each DOF whose prescribed value
// moved by delta, the retained coupling updates the unconstrained
// equations (F[i] -= K0[i][j]*delta) and the identity row is set to the
// new value. The stiffness matrix — and with it the preconditioner
// factors — stays valid. Returns the number of DOFs whose value
// actually changed.
func (s *System) PatchDirichlet(ctx context.Context, bc map[int32]geom.Vec3) (changed int, err error) {
	_, span := obs.StartSpan(ctx, obs.SpanFEMPatchBC)
	defer func() { span.End(err) }()
	if changed, err = s.patch(bc); err != nil {
		return 0, err
	}
	span.SetAttr("dofs_changed", changed)
	span.SetAttr("dofs_constrained", s.nConstrained)
	return changed, nil
}

// patch is PatchDirichlet without its telemetry.
func (s *System) patch(bc map[int32]geom.Vec3) (changed int, err error) {
	if s.bcVal == nil {
		return 0, fmt.Errorf("fem: PatchDirichlet before ApplyDirichlet: %w", ErrBoundarySetChanged)
	}
	if 3*len(bc) != s.nConstrained {
		return 0, fmt.Errorf("fem: %d boundary nodes, eliminated system has %d: %w",
			len(bc), s.nConstrained/3, ErrBoundarySetChanged)
	}
	for node := range bc {
		if node < 0 || int(node) >= s.NodePart.N || !s.Constrained[3*int(node)] {
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
			// The identity row still takes v: equal values may differ in
			// the sign of zero, and a prescribed -0 is solved for as -0.
			s.F[dof], s.bcVal[dof] = v, v
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
	return changed, nil
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
