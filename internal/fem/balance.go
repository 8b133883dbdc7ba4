package fem

import (
	"repro/internal/mesh"
	"repro/internal/par"
)

// The paper attributes its sublinear scaling to two load imbalances and
// proposes fixing them as future work: (1) assembly imbalance, because
// equal node counts do not mean equal element work ("different mesh
// nodes can have different connectivity"), and (2) solve imbalance,
// because Dirichlet substitution empties some ranks' rows ("the
// distribution of surface displacements is not equal across CPUs").
// The two partitioners below implement those fixes: contiguous
// partitions whose boundaries are placed by actual per-node work rather
// than node count. The ablation benchmarks compare them against the
// paper's even decomposition.

// BalancedNodePartition partitions mesh nodes so each rank receives
// approximately equal assembly work (incident-element count per node,
// which is proportional to the stiffness rows it must accumulate).
func BalancedNodePartition(m *mesh.Mesh, p int) par.Partition {
	weights := make([]float64, m.NumNodes())
	for _, t := range m.Tets {
		for _, node := range t {
			weights[node]++
		}
	}
	return par.Weighted(weights, p)
}

// BalancedDOFPartition partitions the solved system's rows so each rank
// receives approximately equal matrix work (nnz), accounting for the
// trivial rows left by Dirichlet substitution. It weighs each node by
// its three rows' nnz and lifts the node partition with DOFPartitionOf,
// so a node's DOFs never split across ranks.
func (s *System) BalancedDOFPartition(p int) par.Partition {
	nNodes := s.Mesh.NumNodes()
	weights := make([]float64, nNodes)
	for n := 0; n < nNodes; n++ {
		for i := 0; i < 3; i++ {
			row := 3*n + i
			weights[n] += float64(s.K.RowPtr[row+1] - s.K.RowPtr[row])
		}
	}
	return DOFPartitionOf(par.Weighted(weights, p))
}
