package par

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEvenCoversAllIndices(t *testing.T) {
	f := func(n, p uint8) bool {
		np := int(n)
		pp := int(p)%16 + 1
		pt := Even(np, pp)
		// Ranges are contiguous, non-overlapping, and cover [0, n).
		if pt.Starts[0] != 0 || pt.Starts[pp] != np {
			return false
		}
		for r := 0; r < pp; r++ {
			if pt.Starts[r] > pt.Starts[r+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValidate: a partition validates against n only when it covers
// exactly [0, n) with ascending starts; the error names the broken rule.
func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		pt   Partition
		n    int
		want string // "" when pt covers n
	}{
		{"even", Even(30, 4), 30, ""},
		{"one rank", Even(30, 1), 30, ""},
		{"empty ranks", Partition{N: 30, P: 3, Starts: []int{0, 30, 30, 30}}, 30, ""},
		{"no items", Even(0, 2), 0, ""},
		{"zero", Partition{}, 30, "does not cover"},
		{"other N", Even(33, 2), 30, "does not cover"},
		{"starts short", Partition{N: 30, P: 2, Starts: []int{0, 30}}, 30, "does not cover"},
		{"first start past zero", Partition{N: 30, P: 2, Starts: []int{3, 15, 30}}, 30, "does not cover"},
		{"last start past n", Partition{N: 30, P: 2, Starts: []int{0, 15, 31}}, 30, "does not cover"},
		{"starts decrease", Partition{N: 30, P: 2, Starts: []int{0, 31, 30}}, 30, "decrease at rank 2"},
	} {
		err := c.pt.Validate(c.n)
		if c.want == "" && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestEvenBalanced(t *testing.T) {
	pt := Even(10, 3)
	sizes := []int{pt.Size(0), pt.Size(1), pt.Size(2)}
	if sizes[0]+sizes[1]+sizes[2] != 10 {
		t.Fatalf("sizes %v don't sum to 10", sizes)
	}
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Errorf("size %d not in [3,4]", s)
		}
	}
}

func TestEvenPanicsOnInvalid(t *testing.T) {
	for _, c := range []struct{ n, p int }{{-1, 2}, {5, 0}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Even(%d,%d) did not panic", c.n, c.p)
				}
			}()
			Even(c.n, c.p)
		}()
	}
}

func TestOwnerConsistentWithRange(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		p := 1 + rng.Intn(12)
		pt := Even(n, p)
		for i := 0; i < n; i++ {
			r := pt.Owner(i)
			lo, hi := pt.Range(r)
			if i < lo || i >= hi {
				t.Fatalf("Owner(%d)=%d but range is [%d,%d)", i, r, lo, hi)
			}
		}
	}
}

func TestOwnerPanicsOutOfRange(t *testing.T) {
	pt := Even(5, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	pt.Owner(5)
}

func TestWeightedBalancesWork(t *testing.T) {
	// First half of items have weight 9, second half weight 1: the
	// even split would give rank 0 90% of the work; the weighted split
	// must do much better.
	n := 100
	w := make([]float64, n)
	for i := range w {
		if i < n/2 {
			w[i] = 9
		} else {
			w[i] = 1
		}
	}
	pt := Weighted(w, 2)
	work := func(r int) float64 {
		lo, hi := pt.Range(r)
		s := 0.0
		for i := lo; i < hi; i++ {
			s += w[i]
		}
		return s
	}
	w0, w1 := work(0), work(1)
	total := w0 + w1
	if w0 > 0.6*total || w1 > 0.6*total {
		t.Errorf("weighted partition imbalanced: %v vs %v", w0, w1)
	}
}

func TestWeightedZeroWeightsFallsBackToEven(t *testing.T) {
	pt := Weighted(make([]float64, 10), 2)
	if pt.Size(0) != 5 || pt.Size(1) != 5 {
		t.Errorf("zero-weight split = %d/%d, want 5/5", pt.Size(0), pt.Size(1))
	}
}

// TestSlabsOnePerCoreAtMostN: one slab per core, never more slabs than
// items, and one (empty) slab for no items.
func TestSlabsOnePerCoreAtMostN(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ n, want int }{{0, 1}, {1, 1}, {3, 3}, {4, 4}, {11, 4}} {
		pt := Slabs(tc.n)
		if pt.P != tc.want || pt.N != tc.n {
			t.Errorf("Slabs(%d) = %d slabs over %d, want %d over %d", tc.n, pt.P, pt.N, tc.want, tc.n)
		}
		for r := 0; r < pt.P && tc.n > 0; r++ {
			if pt.Size(r) == 0 {
				t.Errorf("Slabs(%d): slab %d is empty", tc.n, r)
			}
		}
	}
}

func TestForEachRankRunsAll(t *testing.T) {
	pt := Even(100, 7)
	var visited int64
	pt.ForEachRank(func(r int) {
		atomic.AddInt64(&visited, 1<<uint(r))
	})
	if visited != (1<<7)-1 {
		t.Errorf("visited mask = %b, want all 7 ranks", visited)
	}
}

// TestForEachRankManyShortCalls makes the fork-join's ordering rules
// observable. With bodies this short a rank can finish before the
// spawning loop moves on, so an Add issued after its go statement
// panics with a negative counter within a few thousand calls; a call
// that returns before every rank ran leaves its count short; and two
// concurrent callers (two jobs of the service) trip the runtime's
// "WaitGroup is reused" check, or the race detector, if the calls ever
// came to share one WaitGroup.
func TestForEachRankManyShortCalls(t *testing.T) {
	pt := Even(64, 8)
	const calls = 25000
	var callers sync.WaitGroup
	for c := 0; c < 2; c++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			var ran atomic.Int64
			for i := 1; i <= calls; i++ {
				pt.ForEachRank(func(int) { ran.Add(1) })
				if got := ran.Load(); got != int64(i)*8 {
					t.Errorf("after %d calls %d rank bodies had run, want %d", i, got, i*8)
					return
				}
			}
		}()
	}
	callers.Wait()
}

// TestForEachRankPanicReachesTheCaller: a rank's panic does not kill
// the process from its worker goroutine. Every other rank still runs to
// the end, and only then is the panic raised again on the caller's
// goroutine, carrying the value and the panicking worker's stack.
func TestForEachRankPanicReachesTheCaller(t *testing.T) {
	pt := Even(64, 4)
	var done atomic.Int64
	got := func() (p any) {
		defer func() { p = recover() }()
		pt.ForEachRank(func(r int) {
			if r == 2 {
				panic("rank body")
			}
			done.Add(1)
		})
		return nil
	}()
	if n := done.Load(); n != 3 {
		t.Errorf("%d ranks finished before the panic was raised, want the other 3", n)
	}
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, "rank body") || !strings.Contains(msg, "rank 2") || !strings.Contains(msg, "goroutine ") {
		t.Errorf("recovered %q, want the value, its rank and the worker's stack", msg)
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters(3)
	c.AddFlops(0, 100)
	c.AddFlops(1, 200)
	c.AddFlops(2, 300)
	if c.TotalFlops() != 600 {
		t.Errorf("TotalFlops = %v", c.TotalFlops())
	}
	if c.MaxFlops() != 300 {
		t.Errorf("MaxFlops = %v", c.MaxFlops())
	}
	if got := c.Imbalance(); got != 1.5 {
		t.Errorf("Imbalance = %v, want 1.5", got)
	}
}

func TestCountersEmpty(t *testing.T) {
	c := NewCounters(2)
	if c.Imbalance() != 1 {
		t.Errorf("empty Imbalance = %v, want 1", c.Imbalance())
	}
}
