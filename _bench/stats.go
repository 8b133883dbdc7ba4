package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailMinBeyond is the number of samples that must lie beyond a tail
// percentile before it is reported (choosing-metrics §1).
const tailMinBeyond = 10

// p90 returns the 90th percentile (nearest rank) and whether the sample
// is large enough to report it: at least tailMinBeyond samples must lie
// beyond the returned one, which takes 100 samples.
func p90(xs []float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(0.9 * float64(n)))
	if n-rank < tailMinBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so the
// figure matches the one the PR driver computes. ok is false with fewer
// than two values or a zero median.
func quartileSpread(xs []float64) (spread float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	return (q(3) - q(1)) / math.Abs(med), true
}
