package classify

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/volume"
)

// kdNode is one node of a KDTree. An inner node splits on axis at
// split; its left child follows it in the node slice and its right
// child is nodes[right]. A leaf (axis < 0) holds the points [lo, hi).
type kdNode struct {
	split  float64
	axis   int32
	right  int32
	lo, hi int32
}

// KDTree accelerates k-NN queries over the (weighted) prototype feature
// space. With a few hundred prototypes brute force is already fast; the
// tree matters when the prototype set grows toward the thousands the
// paper's interactive selection could produce over a long case.
//
// The tree is flat: its nodes live in one slice, and each leaf's
// points are stored contiguously, already weighted and padded with
// zeros to stride coordinates (a multiple of four), so one unrolled
// loop serves every channel count. A zero coordinate adds +0 to a
// non-negative distance, so the padding changes no sum.
type KDTree struct {
	nodes   []kdNode
	coords  []float64 // point p is coords[p*stride : (p+1)*stride]
	labels  []volume.Label
	weights []float64
	dim     int
	stride  int
}

const kdLeafSize = 8

// NewKDTree builds a k-d tree over the classifier's prototypes using
// its channel weights (nil = unit weights).
func NewKDTree(protos []Prototype, weights []float64) *KDTree {
	if len(protos) == 0 {
		return &KDTree{}
	}
	dim := len(protos[0].Features)
	w := weights
	if w == nil {
		w = make([]float64, dim)
		for i := range w {
			w[i] = 1
		}
	}
	t := &KDTree{weights: w, dim: dim, stride: (dim + 3) &^ 3}
	scaled := make([]float64, len(protos)*t.stride)
	for p, pr := range protos {
		for a := 0; a < dim; a++ {
			scaled[p*t.stride+a] = pr.Features[a] * w[a]
		}
	}
	idxs := make([]int, len(protos))
	for i := range idxs {
		idxs[i] = i
	}
	t.coords = make([]float64, 0, len(protos)*t.stride)
	t.labels = make([]volume.Label, 0, len(protos))
	t.build(protos, scaled, idxs, 0)
	return t
}

// build appends the subtree over idxs in preorder: the node, its left
// subtree, then its right.
func (t *KDTree) build(protos []Prototype, scaled []float64, idxs []int, depth int) {
	n := len(t.nodes)
	t.nodes = append(t.nodes, kdNode{axis: -1})
	if len(idxs) <= kdLeafSize {
		t.nodes[n].lo = int32(len(t.labels))
		for _, pi := range idxs {
			t.coords = append(t.coords, scaled[pi*t.stride:(pi+1)*t.stride]...)
			t.labels = append(t.labels, protos[pi].Label)
		}
		t.nodes[n].hi = int32(len(t.labels))
		return
	}
	axis := depth % t.dim
	sort.Slice(idxs, func(a, b int) bool {
		return scaled[idxs[a]*t.stride+axis] < scaled[idxs[b]*t.stride+axis]
	})
	mid := len(idxs) / 2
	t.nodes[n].axis = int32(axis)
	t.nodes[n].split = scaled[idxs[mid]*t.stride+axis]
	t.build(protos, scaled, idxs[:mid], depth+1)
	t.nodes[n].right = int32(len(t.nodes))
	t.build(protos, scaled, idxs[mid:], depth+1)
}

// Nearest fills bestD (squared weighted distances, ascending) and bestL
// with the k nearest prototypes to the (unweighted) feature vector.
// Slices must have length k and are fully overwritten.
func (t *KDTree) Nearest(feat []float64, bestD []float64, bestL []volume.Label) {
	t.nearest(feat, make([]float64, t.stride), bestD, bestL)
}

// nearest is Nearest with the weighted query written into q: scratch
// of length stride that the caller owns, zero past dim.
func (t *KDTree) nearest(feat, q []float64, bestD []float64, bestL []volume.Label) {
	for i := range bestD {
		bestD[i] = 1e300
		bestL[i] = 0
	}
	if len(t.nodes) == 0 {
		return
	}
	for i := 0; i < t.dim; i++ {
		q[i] = feat[i] * t.weights[i]
	}
	t.search(0, q, bestD, bestL)
}

// search visits node n's subtree, the near side of each split first.
// A leaf sums its points' distances first, each left to right over its
// coordinates, then offers the points to the k best in leaf order: a
// distance does not depend on the k best, so the sums and the offers
// are those of a point-at-a-time scan.
func (t *KDTree) search(n int32, q []float64, bestD []float64, bestL []volume.Label) {
	k := len(bestD)
	nd := &t.nodes[n]
	if nd.axis < 0 {
		s := t.stride
		lo, hi := int(nd.lo), int(nd.hi)
		var dist [kdLeafSize]float64
		pts := t.coords[lo*s : hi*s]
		for a := 0; a < s; a += 4 {
			q0, q1, q2, q3 := q[a], q[a+1], q[a+2], q[a+3]
			for p := range hi - lo {
				c := pts[p*s+a : p*s+a+4 : p*s+a+4]
				d0, d1, d2, d3 := q0-c[0], q1-c[1], q2-c[2], q3-c[3]
				d := dist[p]
				d += d0 * d0
				d += d1 * d1
				d += d2 * d2
				d += d3 * d3
				dist[p] = d
			}
		}
		for p, d := range dist[:hi-lo] {
			if d >= bestD[k-1] {
				continue
			}
			pos := k - 1
			for pos > 0 && bestD[pos-1] > d {
				bestD[pos] = bestD[pos-1]
				bestL[pos] = bestL[pos-1]
				pos--
			}
			bestD[pos] = d
			bestL[pos] = t.labels[lo+p]
		}
		return
	}
	diff := q[nd.axis] - nd.split
	near, far := n+1, nd.right
	if diff >= 0 {
		near, far = far, near
	}
	t.search(near, q, bestD, bestL)
	// Prune the far subtree when the splitting plane is beyond the
	// current k-th distance.
	if diff*diff < bestD[k-1] {
		t.search(far, q, bestD, bestL)
	}
}

// ClassifyKDContext labels every voxel like ClassifyContext but answers
// neighbor queries through a k-d tree. Results are identical to
// ClassifyContext's up to ties at exactly equal distances; validation, worker
// fan-out and context semantics are ClassifyContext's.
func (c *Classifier) ClassifyKDContext(ctx context.Context, channels []*volume.Scalar) (*volume.Labels, error) {
	return c.classify(ctx, channels, true, nil, nil)
}

// ClassifyBandKDContext re-labels only the voxels band lists (linear
// indices, each at most once) the way ClassifyKDContext labels them,
// bit for bit, and gives every other voxel its label in prev: the
// narrow-band update of a classification whose boundary can have moved
// only near where it was. prev is read, never written, and must lie on
// the channels' grid. The context poll counts band positions, so a
// cancelled context aborts as promptly as on the full grid and returns
// ctx.Err().
func (c *Classifier) ClassifyBandKDContext(ctx context.Context, channels []*volume.Scalar,
	prev *volume.Labels, band []int32) (*volume.Labels, error) {
	if prev == nil {
		return nil, fmt.Errorf("classify: nil previous labels")
	}
	return c.classify(ctx, channels, true, prev, band)
}
