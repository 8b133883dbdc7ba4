package solver

import (
	"sync"

	"repro/internal/par"
	"repro/internal/sparse"
)

// PCCache caches one factorized block-Jacobi preconditioner across
// solves. A scan changes only the right-hand side of the eliminated
// system, so the stiffness matrix — and with it the ILU(0) block
// factors, the dominant setup cost of every solve — stays valid from
// scan to scan and from session to session: the cache lives on the
// shared fem.Operator.
//
// The cache is keyed on the identity of the CSR matrix plus the row
// partition. That key is sound because no layer mutates a built CSR in
// place: any change to the stiffness matrix (re-assembly, Dirichlet
// elimination) allocates a new CSR on a new Operator, whose cache is
// empty.
//
// The zero value is ready to use. Methods are safe for concurrent use,
// and the factorization is single-flight: it runs under the lock, so
// callers arriving during it wait and then share its factors instead of
// each spending the time and memory of their own.
type PCCache struct {
	mu     sync.Mutex
	key    *sparse.CSR
	part   par.Partition
	pc     *BlockJacobiPC
	hits   uint64
	misses uint64
}

// BlockJacobiILU0 returns the block-Jacobi ILU(0) preconditioner for
// (a, pt), reusing the cached factors when the same matrix and
// partition were factorized before. hit reports whether the cache
// served the request.
func (c *PCCache) BlockJacobiILU0(a *sparse.CSR, pt par.Partition) (pc *BlockJacobiPC, hit bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pc != nil && c.key == a && samePartition(c.part, pt) {
		c.hits++
		return c.pc, true, nil
	}
	c.misses++
	if pc, err = NewBlockJacobiILU0(a, pt); err != nil {
		return nil, false, err
	}
	c.key, c.part, c.pc = a, pt, pc
	return pc, false, nil
}

// Stats returns the cumulative hit and miss counts.
func (c *PCCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// samePartition reports whether two row partitions describe the same
// block structure.
func samePartition(a, b par.Partition) bool {
	if a.N != b.N || a.P != b.P || len(a.Starts) != len(b.Starts) {
		return false
	}
	for i := range a.Starts {
		if a.Starts[i] != b.Starts[i] {
			return false
		}
	}
	return true
}
