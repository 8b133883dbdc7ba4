package solver

import (
	"math/rand"
	"testing"
)

// TestDot32MatchesWidenedDot pins dot32's accumulation: widening the
// float32 operand first and taking the one-accumulator float64 dot
// (oracleDot; dot itself sums in chunked lanes) gives the same bits
// (same products, same order), so a float32 accumulator or a reordered
// sum in dot32 fails here rather than only as a drifting residual.
func TestDot32MatchesWidenedDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 1000} {
		a := make([]float64, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = float32(rng.NormFloat64())
		}
		wide := make([]float64, n)
		widenInto(wide, b)
		if got, want := dot32(a, b), oracleDot(a, wide); got != want {
			t.Errorf("n=%d: dot32 = %v, dot over the widened operand = %v", n, got, want)
		}
	}
}
