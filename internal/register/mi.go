// Package register implements rigid registration of 3D volumes by
// maximization of mutual information (Wells et al., Medical Image
// Analysis 1996), the method the paper uses to align each
// intraoperative scan to the preoperative coordinate frame before
// nonrigid simulation.
//
// Mutual information is estimated from the joint intensity histogram of
// the fixed volume and the rigidly transformed moving volume, and
// maximized over the 6 rigid parameters with Powell's direction-set
// method over a coarse-to-fine resolution pyramid.
package register

import (
	"math"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/volume"
)

// Histogram2D accumulates a joint intensity histogram between two
// volumes sampled at corresponding points.
type Histogram2D struct {
	Bins           int
	MinA, MaxA     float64
	MinB, MaxB     float64
	Counts         []float64
	marginalA      []float64
	marginalB      []float64
	total          float64
	marginalsDirty bool
}

// NewHistogram2D creates a bins x bins joint histogram with the given
// intensity windows.
func NewHistogram2D(bins int, minA, maxA, minB, maxB float64) *Histogram2D {
	if bins < 2 {
		bins = 2
	}
	if maxA <= minA {
		maxA = minA + 1
	}
	if maxB <= minB {
		maxB = minB + 1
	}
	return &Histogram2D{
		Bins: bins,
		MinA: minA, MaxA: maxA,
		MinB: minB, MaxB: maxB,
		Counts:         make([]float64, bins*bins),
		marginalA:      make([]float64, bins),
		marginalB:      make([]float64, bins),
		marginalsDirty: true,
	}
}

// Reset clears all counts.
func (h *Histogram2D) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.total = 0
	h.marginalsDirty = true
}

func (h *Histogram2D) bin(v, lo, hi float64) int {
	b := int(float64(h.Bins) * (v - lo) / (hi - lo))
	if b < 0 {
		b = 0
	}
	if b >= h.Bins {
		b = h.Bins - 1
	}
	return b
}

// Add accumulates one sample pair (a from the fixed volume, b from the
// moving volume).
func (h *Histogram2D) Add(a, b float64) {
	ba := h.bin(a, h.MinA, h.MaxA)
	bb := h.bin(b, h.MinB, h.MaxB)
	h.Counts[ba*h.Bins+bb]++
	h.total++
	h.marginalsDirty = true
}

func (h *Histogram2D) computeMarginals() {
	if !h.marginalsDirty {
		return
	}
	for i := range h.marginalA {
		h.marginalA[i] = 0
		h.marginalB[i] = 0
	}
	for i := 0; i < h.Bins; i++ {
		for j := 0; j < h.Bins; j++ {
			c := h.Counts[i*h.Bins+j]
			h.marginalA[i] += c
			h.marginalB[j] += c
		}
	}
	h.marginalsDirty = false
}

// Total returns the number of accumulated samples.
func (h *Histogram2D) Total() float64 { return h.total }

// MutualInformation returns the MI estimate
// I(A;B) = sum p(a,b) log( p(a,b) / (p(a) p(b)) ) in nats.
func (h *Histogram2D) MutualInformation() float64 {
	if h.total == 0 {
		return 0
	}
	h.computeMarginals()
	mi := 0.0
	n := h.total
	for i := 0; i < h.Bins; i++ {
		pa := h.marginalA[i] / n
		if pa == 0 {
			continue
		}
		for j := 0; j < h.Bins; j++ {
			c := h.Counts[i*h.Bins+j]
			if c == 0 {
				continue
			}
			pab := c / n
			pb := h.marginalB[j] / n
			mi += pab * math.Log(pab/(pa*pb))
		}
	}
	return mi
}

// EntropyA returns the marginal entropy of the fixed-volume intensities.
func (h *Histogram2D) EntropyA() float64 {
	h.computeMarginals()
	return entropy(h.marginalA, h.total)
}

// EntropyB returns the marginal entropy of the moving-volume
// intensities.
func (h *Histogram2D) EntropyB() float64 {
	h.computeMarginals()
	return entropy(h.marginalB, h.total)
}

// JointEntropy returns the entropy of the joint distribution.
func (h *Histogram2D) JointEntropy() float64 {
	return entropy(h.Counts, h.total)
}

// NormalizedMutualInformation returns (H(A)+H(B))/H(A,B), which is more
// robust than MI to changes in image overlap.
func (h *Histogram2D) NormalizedMutualInformation() float64 {
	je := h.JointEntropy()
	if je == 0 {
		return 0
	}
	return (h.EntropyA() + h.EntropyB()) / je
}

func entropy(counts []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	e := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := c / total
		e -= p * math.Log(p)
	}
	return e
}

// SampleMI evaluates the mutual information between fixed and moving
// after transforming sample points by the rigid transform t: samples are
// taken on the fixed grid with the given stride, and the moving volume
// is probed at t^(-1)... precisely, at the location the transform maps
// each fixed-grid point to. Background-only pairs (both samples below
// threshold) are skipped so empty air does not dominate the histogram.
type MIMetric struct {
	Fixed, Moving *volume.Scalar
	Bins          int
	Stride        int
	// Threshold discards sample pairs where both intensities fall below
	// it (air voxels carry no alignment information).
	Threshold float64

	hist *Histogram2D
}

// NewMIMetric builds a metric with sensible defaults: 32 bins, stride
// chosen so about 40^3 samples are used.
func NewMIMetric(fixed, moving *volume.Scalar) *MIMetric {
	stride := 1
	for (fixed.Grid.NX/stride)*(fixed.Grid.NY/stride)*(fixed.Grid.NZ/stride) > 64000 {
		stride++
	}
	loF, hiF := fixed.MinMax()
	loM, hiM := moving.MinMax()
	m := &MIMetric{
		Fixed: fixed, Moving: moving,
		Bins: 32, Stride: stride,
		Threshold: 0,
	}
	m.hist = NewHistogram2D(m.Bins, loF, hiF, loM, hiM)
	return m
}

// Evaluate returns the mutual information under the given transform of
// moving-volume coordinates: each fixed-grid sample point is mapped by
// apply before probing the moving volume.
func (m *MIMetric) Evaluate(apply func(geom.Vec3) geom.Vec3) float64 {
	m.accumulate(apply)
	return m.hist.MutualInformation()
}

// EvaluateNMI returns the normalized mutual information, which is less
// sensitive to the image-overlap pathologies of raw MI and therefore
// preferred as the optimization objective.
func (m *MIMetric) EvaluateNMI(apply func(geom.Vec3) geom.Vec3) float64 {
	m.accumulate(apply)
	return m.hist.NormalizedMutualInformation()
}

// accumulate fills the histogram with the sample pairs under apply,
// which is called concurrently. The strided z-planes are split into
// slabs, one per core, each counting into an array of its own; the
// arrays are then added in slab order. Counts are whole numbers, so the
// histogram is the serial one, bit for bit.
func (m *MIMetric) accumulate(apply func(geom.Vec3) geom.Vec3) {
	h := m.hist
	h.Reset()
	g := m.Fixed.Grid
	pt := par.Slabs((g.NZ + m.Stride - 1) / m.Stride)
	slabCounts := make([][]float64, pt.P)
	pt.ForEachRank(func(s int) {
		counts := make([]float64, len(h.Counts))
		slabCounts[s] = counts
		lo, hi := pt.Range(s)
		for k := lo * m.Stride; k < hi*m.Stride; k += m.Stride {
			for j := 0; j < g.NY; j += m.Stride {
				for i := 0; i < g.NX; i += m.Stride {
					p := g.World(i, j, k)
					a := float64(m.Fixed.Data[g.Index(i, j, k)])
					b := m.Moving.SampleWorld(apply(p))
					if a <= m.Threshold && b <= m.Threshold {
						continue
					}
					counts[h.bin(a, h.MinA, h.MaxA)*h.Bins+h.bin(b, h.MinB, h.MaxB)]++
				}
			}
		}
	})
	for _, counts := range slabCounts {
		for i, c := range counts {
			h.Counts[i] += c
			h.total += c
		}
	}
}
