package classify

import (
	"context"
	"sort"

	"repro/internal/volume"
)

// kdNode is a node of a k-d tree over prototype feature vectors.
type kdNode struct {
	axis        int
	split       float64
	proto       int // index into the prototype slice (leaf payload)
	left, right *kdNode
	leaf        bool
	// leafProtos holds the prototype indices of a leaf bucket.
	leafProtos []int
}

// KDTree accelerates k-NN queries over the (weighted) prototype feature
// space. With a few hundred prototypes brute force is already fast; the
// tree matters when the prototype set grows toward the thousands the
// paper's interactive selection could produce over a long case.
type KDTree struct {
	root    *kdNode
	protos  []Prototype
	weights []float64
	dim     int
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
	t := &KDTree{protos: protos, weights: w, dim: dim}
	idxs := make([]int, len(protos))
	for i := range idxs {
		idxs[i] = i
	}
	t.root = t.build(idxs, 0)
	return t
}

// scaled returns the weighted coordinate of prototype p on axis a.
func (t *KDTree) scaled(p, a int) float64 {
	return t.protos[p].Features[a] * t.weights[a]
}

func (t *KDTree) build(idxs []int, depth int) *kdNode {
	if len(idxs) <= kdLeafSize {
		return &kdNode{leaf: true, leafProtos: idxs}
	}
	axis := depth % t.dim
	sort.Slice(idxs, func(a, b int) bool {
		return t.scaled(idxs[a], axis) < t.scaled(idxs[b], axis)
	})
	mid := len(idxs) / 2
	n := &kdNode{
		axis:  axis,
		split: t.scaled(idxs[mid], axis),
		proto: idxs[mid],
	}
	n.left = t.build(idxs[:mid], depth+1)
	n.right = t.build(idxs[mid:], depth+1)
	return n
}

// Nearest fills bestD (squared weighted distances, ascending) and bestL
// with the k nearest prototypes to the (unweighted) feature vector.
// Slices must have length k and are fully overwritten.
func (t *KDTree) Nearest(feat []float64, bestD []float64, bestL []volume.Label) {
	for i := range bestD {
		bestD[i] = 1e300
		bestL[i] = 0
	}
	if t.root == nil {
		return
	}
	q := make([]float64, t.dim)
	for i := 0; i < t.dim; i++ {
		q[i] = feat[i] * t.weights[i]
	}
	t.search(t.root, q, bestD, bestL)
}

func (t *KDTree) search(n *kdNode, q []float64, bestD []float64, bestL []volume.Label) {
	k := len(bestD)
	if n.leaf {
		for _, pi := range n.leafProtos {
			d := 0.0
			f := t.protos[pi].Features
			for a := 0; a < t.dim; a++ {
				diff := q[a] - f[a]*t.weights[a]
				d += diff * diff
				if d >= bestD[k-1] {
					break
				}
			}
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
			bestL[pos] = t.protos[pi].Label
		}
		return
	}
	diff := q[n.axis] - n.split
	near, far := n.left, n.right
	if diff >= 0 {
		near, far = n.right, n.left
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
	return c.classify(ctx, channels, true)
}
