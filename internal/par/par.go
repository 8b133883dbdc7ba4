// Package par provides the reproduction's parallel runtime: a
// rank-based decomposition in the style of the paper's MPI/PETSc
// implementation, executed with goroutines. Work is split into
// contiguous index ranges ("partitions"), one per rank; per-rank
// counters record the floating-point work each rank performs, which
// feeds the cluster performance model (package cluster) that
// regenerates the paper's scaling figures.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Partition divides the index range [0, N) into P contiguous ranges.
// Range r is [Starts[r], Starts[r+1]). The paper's decomposition sends
// "approximately equal numbers of mesh nodes to each CPU"; Even
// reproduces that scheme, and the resulting imbalance in actual work
// (element connectivity, boundary conditions) is exactly the imbalance
// the paper discusses.
type Partition struct {
	N      int
	P      int
	Starts []int
}

// Even partitions n items into p nearly equal contiguous ranges.
// It panics when n < 0 or p <= 0.
func Even(n, p int) Partition {
	if n < 0 || p <= 0 {
		panic(fmt.Sprintf("par: invalid partition n=%d p=%d", n, p))
	}
	starts := make([]int, p+1)
	base := n / p
	rem := n % p
	pos := 0
	for r := 0; r < p; r++ {
		starts[r] = pos
		pos += base
		if r < rem {
			pos++
		}
	}
	starts[p] = n
	return Partition{N: n, P: p, Starts: starts}
}

// Weighted partitions n items into p contiguous ranges of approximately
// equal total weight. Weights must be non-negative and len(weights)==n.
func Weighted(weights []float64, p int) Partition {
	n := len(weights)
	if p <= 0 {
		panic(fmt.Sprintf("par: invalid partition p=%d", p))
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	starts := make([]int, p+1)
	starts[p] = n
	if total == 0 {
		return Even(n, p)
	}
	target := total / float64(p)
	acc := 0.0
	rank := 1
	for i := 0; i < n && rank < p; i++ {
		acc += weights[i]
		if acc >= target*float64(rank) {
			starts[rank] = i + 1
			rank++
		}
	}
	// Any unassigned trailing ranks start at n (empty ranges).
	for ; rank < p; rank++ {
		starts[rank] = n
	}
	return Partition{N: n, P: p, Starts: starts}
}

// Slabs partitions n items (z-planes, rows, vertices) into one
// contiguous slab per core, GOMAXPROCS of them but never more than n,
// for a pass to run with ForEachRank. A pass whose slabs write disjoint
// outputs, each with the expression the serial loop uses, and reduce
// only exactly or serially in index order, gives the same bits for any
// core count.
func Slabs(n int) Partition {
	return Even(n, max(1, min(n, runtime.GOMAXPROCS(0))))
}

// Validate reports whether pt partitions exactly the n items [0, n): N
// is n, P >= 1 ranks have P+1 starts, and the starts ascend from 0 to n.
// The error names the first rule pt breaks.
func (pt Partition) Validate(n int) error {
	if pt.N != n || pt.P < 1 || len(pt.Starts) != pt.P+1 || pt.Starts[0] != 0 || pt.Starts[pt.P] != n {
		return fmt.Errorf("par: partition (N=%d, P=%d, %d starts) does not cover %d items", pt.N, pt.P, len(pt.Starts), n)
	}
	for r := 1; r <= pt.P; r++ {
		if pt.Starts[r] < pt.Starts[r-1] {
			return fmt.Errorf("par: partition starts decrease at rank %d", r)
		}
	}
	return nil
}

// Range returns the [lo, hi) index range of rank r.
func (pt Partition) Range(r int) (lo, hi int) {
	return pt.Starts[r], pt.Starts[r+1]
}

// Size returns the number of items owned by rank r.
func (pt Partition) Size(r int) int {
	return pt.Starts[r+1] - pt.Starts[r]
}

// Owner returns the rank owning index i. It panics for out-of-range i.
func (pt Partition) Owner(i int) int {
	if i < 0 || i >= pt.N {
		panic(fmt.Sprintf("par: index %d out of range [0,%d)", i, pt.N))
	}
	// Binary search over the starts.
	lo, hi := 0, pt.P-1
	for lo < hi {
		mid := (lo + hi) / 2
		if pt.Starts[mid+1] <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ForEachRank runs fn(rank) concurrently for every rank and waits for
// completion. A rank that panics does not take the process down: once
// every rank has returned, the lowest panicking rank's value is raised
// again on the calling goroutine, with the stack of the worker it came
// from, where the caller's own recover can see it.
func (pt Partition) ForEachRank(fn func(rank int)) {
	var wg sync.WaitGroup
	panics := make([]*rankPanic, pt.P)
	wg.Add(pt.P)
	for r := 0; r < pt.P; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[rank] = &rankPanic{rank: rank, value: v, stack: debug.Stack()}
				}
			}()
			fn(rank)
		}(r)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// rankPanic is a rank worker's panic carried to the goroutine that
// called ForEachRank: the value and the stack of the worker.
type rankPanic struct {
	rank  int
	value any
	stack []byte
}

func (p *rankPanic) Error() string {
	return fmt.Sprintf("%v [recovered on rank %d]\n%s", p.value, p.rank, p.stack)
}

// Counters records per-rank work during a parallel phase. All numbers
// are accumulated by the rank itself (no locking needed: one writer per
// slot) and read after the phase completes.
type Counters struct {
	P int
	// Flops counts floating-point operations per rank.
	Flops []float64
}

// NewCounters allocates counters for p ranks.
func NewCounters(p int) *Counters {
	return &Counters{P: p, Flops: make([]float64, p)}
}

// AddFlops accumulates floating-point work for a rank.
func (c *Counters) AddFlops(rank int, n float64) { c.Flops[rank] += n }

// MaxFlops returns the largest per-rank flop count — the critical path
// of a bulk-synchronous phase.
func (c *Counters) MaxFlops() float64 {
	m := 0.0
	for _, f := range c.Flops {
		if f > m {
			m = f
		}
	}
	return m
}

// TotalFlops returns the summed flop count across ranks.
func (c *Counters) TotalFlops() float64 {
	t := 0.0
	for _, f := range c.Flops {
		t += f
	}
	return t
}

// Snapshot is an immutable value summary of a Counters, safe to hand
// across goroutines after the parallel phase it measured has completed.
type Snapshot struct {
	Ranks      int
	TotalFlops float64
	MaxFlops   float64
	Imbalance  float64
}

// Snapshot summarizes the counters into a value type. A nil receiver
// yields a zero snapshot, so callers need not guard optional counters.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		Ranks:      c.P,
		TotalFlops: c.TotalFlops(),
		MaxFlops:   c.MaxFlops(),
		Imbalance:  c.Imbalance(),
	}
}

// Imbalance returns max/mean of per-rank flops (1.0 = perfectly
// balanced). Zero work returns 1.
func (c *Counters) Imbalance() float64 {
	if c.P == 0 {
		return 1
	}
	mean := c.TotalFlops() / float64(c.P)
	if mean == 0 {
		return 1
	}
	return c.MaxFlops() / mean
}
