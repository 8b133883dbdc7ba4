package solver

import (
	"sync"

	"repro/internal/par"
	"repro/internal/sparse"
)

// PCCache caches one factorized block-Jacobi preconditioner across
// solves. The incremental re-solve path patches only the right-hand
// side between intraoperative updates, so the stiffness matrix — and
// with it the ILU(0) block factors, the dominant setup cost of every
// solve — stays valid from scan to scan.
//
// The cache is keyed on the identity of the CSR matrix plus the row
// partition. That key is sound because the assembly layer never mutates
// a built CSR in place: any change to the stiffness matrix (re-assembly,
// Dirichlet elimination) allocates a new CSR and stores it on the
// System, which misses the cache automatically. Callers that mutate matrix
// values in place (none in this module) must call Invalidate first.
//
// The zero value is ready to use. Methods are safe for concurrent use,
// though the factorization itself runs outside the lock (two concurrent
// misses may both factorize; the last store wins — correct, just not
// deduplicated).
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
	if c.pc != nil && c.key == a && samePartition(c.part, pt) {
		c.hits++
		pc = c.pc
		c.mu.Unlock()
		return pc, true, nil
	}
	c.misses++
	c.mu.Unlock()
	pc, err = NewBlockJacobiILU0(a, pt)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.key, c.part, c.pc = a, pt, pc
	c.mu.Unlock()
	return pc, false, nil
}

// Invalidate drops the cached factors; the next request factorizes
// fresh. Call whenever the cached matrix may have been mutated in
// place.
func (c *PCCache) Invalidate() {
	c.mu.Lock()
	c.key, c.pc = nil, nil
	c.mu.Unlock()
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
