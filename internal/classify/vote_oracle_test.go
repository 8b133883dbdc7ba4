package classify

import (
	"math/rand"
	"testing"

	"repro/internal/volume"
)

// voteTable is the tally vote replaced, kept as its oracle: two
// 256-entry tables cleared and scanned per voxel.
func voteTable(labels []volume.Label, dists []float64) volume.Label {
	var count [256]int
	var nearestDist [256]float64
	for i := range nearestDist {
		nearestDist[i] = 1e300
	}
	for i, l := range labels {
		if dists[i] >= 1e300 {
			continue
		}
		count[l]++
		if dists[i] < nearestDist[l] {
			nearestDist[l] = dists[i]
		}
	}
	best := volume.Label(0)
	bestCount := -1
	bestDist := 1e300
	for l := 0; l < 256; l++ {
		if count[l] == 0 {
			continue
		}
		if count[l] > bestCount || (count[l] == bestCount && nearestDist[l] < bestDist) {
			best = volume.Label(l)
			bestCount = count[l]
			bestDist = nearestDist[l]
		}
	}
	return best
}

func TestVoteMatchesTableOracle(t *testing.T) {
	check := func(labels []volume.Label, dists []float64) {
		t.Helper()
		if got, want := vote(labels, dists), voteTable(labels, dists); got != want {
			t.Fatalf("vote(%v, %v) = %d, table oracle %d", labels, dists, got, want)
		}
	}
	// Exhaustive: k up to 4, three labels, three distances (one the "no
	// neighbor" sentinel) — every tie in count and in distance, every
	// order, and the all-sentinel case.
	labelOf := []volume.Label{0, 3, 200}
	distOf := []float64{0.5, 2, 1e300}
	for k := 0; k <= 4; k++ {
		labels, dists := make([]volume.Label, k), make([]float64, k)
		cases := 1
		for i := 0; i < k; i++ {
			cases *= 9
		}
		for code := 0; code < cases; code++ {
			for i, c := 0, code; i < k; i, c = i+1, c/9 {
				labels[i], dists[i] = labelOf[c%3], distOf[c%9/3]
			}
			check(labels, dists)
		}
	}
	// Random: k up to 9 (more than the labels in play), ascending
	// distances as the searches return them, with repeats and a sentinel
	// tail.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100000; trial++ {
		k := 1 + rng.Intn(9)
		labels, dists := make([]volume.Label, k), make([]float64, k)
		nLabels, d := 1+rng.Intn(5), 0.0
		valid := rng.Intn(k + 1)
		for i := range labels {
			labels[i] = volume.Label(rng.Intn(nLabels) * 60)
			d += float64(rng.Intn(3)) / 2
			dists[i] = d
			if i >= valid {
				labels[i], dists[i] = 0, 1e300
			}
		}
		check(labels, dists)
	}
}
