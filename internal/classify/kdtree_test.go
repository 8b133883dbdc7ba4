package classify

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/volume"
)

// randomPrototypes builds n prototypes with d-dimensional random
// features and random labels from {1, 2, 3}.
func randomPrototypes(n, d int, seed int64) []Prototype {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Prototype, n)
	for i := range out {
		f := make([]float64, d)
		for j := range f {
			f[j] = rng.Float64() * 100
		}
		out[i] = Prototype{Features: f, Label: volume.Label(1 + rng.Intn(3))}
	}
	return out
}

// bruteNearest is the reference k-NN used to validate the tree.
func bruteNearest(protos []Prototype, weights, feat []float64, k int) ([]float64, []volume.Label) {
	bestD := make([]float64, k)
	bestL := make([]volume.Label, k)
	for i := range bestD {
		bestD[i] = 1e300
	}
	for pi := range protos {
		d := 0.0
		for a := range feat {
			w := 1.0
			if weights != nil {
				w = weights[a]
			}
			diff := (feat[a] - protos[pi].Features[a]) * w
			d += diff * diff
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
		bestL[pos] = protos[pi].Label
	}
	return bestD, bestL
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(300)
		d := 1 + rng.Intn(4)
		protos := randomPrototypes(n, d, int64(trial))
		var weights []float64
		if trial%2 == 0 {
			weights = make([]float64, d)
			for i := range weights {
				weights[i] = 0.1 + rng.Float64()*5
			}
		}
		tree := NewKDTree(protos, weights)
		k := 1 + rng.Intn(5)
		for q := 0; q < 50; q++ {
			feat := make([]float64, d)
			for a := range feat {
				feat[a] = rng.Float64() * 100
			}
			gotD := make([]float64, k)
			gotL := make([]volume.Label, k)
			tree.Nearest(feat, gotD, gotL)
			wantD, _ := bruteNearest(protos, weights, feat, k)
			for i := 0; i < k; i++ {
				if diff := gotD[i] - wantD[i]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("trial %d q %d: dist[%d] = %v, want %v", trial, q, i, gotD[i], wantD[i])
				}
			}
		}
	}
}

// ptrNode is a node of ptrTree, the pointer-linked k-d tree KDTree
// replaced, kept as its oracle.
type ptrNode struct {
	axis        int
	split       float64
	left, right *ptrNode
	leaf        bool
	leafProtos  []int
}

type ptrTree struct {
	root    *ptrNode
	protos  []Prototype
	weights []float64
	dim     int
}

func newPtrTree(protos []Prototype, weights []float64) *ptrTree {
	if len(protos) == 0 {
		return &ptrTree{}
	}
	dim := len(protos[0].Features)
	w := weights
	if w == nil {
		w = make([]float64, dim)
		for i := range w {
			w[i] = 1
		}
	}
	t := &ptrTree{protos: protos, weights: w, dim: dim}
	idxs := make([]int, len(protos))
	for i := range idxs {
		idxs[i] = i
	}
	t.root = t.build(idxs, 0)
	return t
}

func (t *ptrTree) scaled(p, a int) float64 {
	return t.protos[p].Features[a] * t.weights[a]
}

func (t *ptrTree) build(idxs []int, depth int) *ptrNode {
	if len(idxs) <= kdLeafSize {
		return &ptrNode{leaf: true, leafProtos: idxs}
	}
	axis := depth % t.dim
	sort.Slice(idxs, func(a, b int) bool {
		return t.scaled(idxs[a], axis) < t.scaled(idxs[b], axis)
	})
	mid := len(idxs) / 2
	n := &ptrNode{axis: axis, split: t.scaled(idxs[mid], axis)}
	n.left = t.build(idxs[:mid], depth+1)
	n.right = t.build(idxs[mid:], depth+1)
	return n
}

func (t *ptrTree) Nearest(feat []float64, bestD []float64, bestL []volume.Label) {
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

func (t *ptrTree) search(n *ptrNode, q []float64, bestD []float64, bestL []volume.Label) {
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
	if diff*diff < bestD[k-1] {
		t.search(far, q, bestD, bestL)
	}
}

// TestKDTreeMatchesPointerTree: the flat tree finds, bit for bit, the
// distances and labels of the pointer tree it replaced — ties
// included, which integer-valued features make common — for 1 to 6
// channels (padded to 4 or 8 coordinates), k from 1 to 7, with and
// without weights.
func TestKDTreeMatchesPointerTree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for dim := 1; dim <= 6; dim++ {
		for _, weighted := range []bool{false, true} {
			n := 1 + rng.Intn(400)
			protos := make([]Prototype, n)
			for i := range protos {
				f := make([]float64, dim)
				for a := range f {
					f[a] = float64(rng.Intn(6))
				}
				protos[i] = Prototype{Features: f, Label: volume.Label(1 + rng.Intn(4))}
			}
			var weights []float64
			if weighted {
				weights = make([]float64, dim)
				for a := range weights {
					weights[a] = []float64{0.5, 1, 2, 3}[rng.Intn(4)]
				}
			}
			flat, oracle := NewKDTree(protos, weights), newPtrTree(protos, weights)
			for k := 1; k <= 7; k++ {
				gotD, wantD := make([]float64, k), make([]float64, k)
				gotL, wantL := make([]volume.Label, k), make([]volume.Label, k)
				for q := 0; q < 40; q++ {
					feat := make([]float64, dim)
					for a := range feat {
						feat[a] = float64(rng.Intn(7)) - 0.5*float64(rng.Intn(2))
					}
					flat.Nearest(feat, gotD, gotL)
					oracle.Nearest(feat, wantD, wantL)
					for i := 0; i < k; i++ {
						if math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) || gotL[i] != wantL[i] {
							t.Fatalf("dim %d weighted %v n %d k %d query %v: neighbour %d (%v, %d), pointer tree (%v, %d)",
								dim, weighted, n, k, feat, i, gotD[i], gotL[i], wantD[i], wantL[i])
						}
					}
				}
			}
		}
	}
}

func TestKDTreeEmpty(t *testing.T) {
	tree := NewKDTree(nil, nil)
	bestD := make([]float64, 2)
	bestL := make([]volume.Label, 2)
	tree.Nearest([]float64{1}, bestD, bestL)
	if bestD[0] < 1e299 {
		t.Error("empty tree returned a neighbor")
	}
}

func TestClassifyKDMatchesClassify(t *testing.T) {
	channels, labels := twoClassChannels(14, 3, 41)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 25, 42)
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{K: 5, Prototypes: protos, Workers: 3}
	a, err := c.ClassifyContext(context.Background(), channels)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.ClassifyKDContext(context.Background(), channels)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := 0
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			mismatch++
		}
	}
	// Exact-tie voxels may legitimately differ; anything more indicates
	// a tree bug.
	if frac := float64(mismatch) / float64(len(a.Data)); frac > 0.001 {
		t.Errorf("kd-tree classification differs at %.3f%% of voxels", 100*frac)
	}
}

func TestClassifyKDErrors(t *testing.T) {
	c := &Classifier{K: 1}
	g := volume.NewGrid(2, 2, 2, 1)
	ch := volume.NewScalar(g)
	if _, err := c.ClassifyKDContext(context.Background(), []*volume.Scalar{ch}); err == nil {
		t.Error("empty classifier accepted")
	}
	c.Prototypes = []Prototype{{Features: []float64{1}, Label: 1}}
	c.Weights = []float64{1, 2}
	if _, err := c.ClassifyKDContext(context.Background(), []*volume.Scalar{ch}); err == nil {
		t.Error("weight arity mismatch accepted")
	}
	// A prototype with too few features is an error, as in Classify —
	// not an index past its Features inside a worker.
	c.Weights = nil
	c.Prototypes = append(c.Prototypes, Prototype{Label: 2})
	if _, err := c.ClassifyKDContext(context.Background(), []*volume.Scalar{ch}); err == nil {
		t.Error("feature arity mismatch accepted")
	}
}

// batchCounter counts finished knn.batch spans.
type batchCounter struct{ n atomic.Int64 }

func (*batchCounter) SpanStarted(obs.SpanInfo) {}
func (b *batchCounter) SpanEnded(f obs.FinishedSpan) {
	if f.Name == obs.SpanKNNBatch.String() {
		b.n.Add(1)
	}
}

// TestClassifyWorkersDefault: Workers == 0 means GOMAXPROCS for the
// brute-force and the k-d search alike (the k-d copy used to run one).
func TestClassifyWorkersDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	cl, channels := twoClassSetup()
	cl.Workers = 0
	for name, run := range map[string]func(context.Context, []*volume.Scalar) (*volume.Labels, error){
		"brute": cl.ClassifyContext, "kdtree": cl.ClassifyKDContext,
	} {
		var batches batchCounter
		if _, err := run(obs.WithSink(context.Background(), &batches), channels); err != nil {
			t.Fatal(err)
		}
		if got := batches.n.Load(); got != 3 {
			t.Errorf("%s: %d worker batches with Workers == 0 and GOMAXPROCS 3, want 3", name, got)
		}
	}
}

func BenchmarkClassifyBruteVsKD(b *testing.B) {
	channels, labels := twoClassChannels(24, 3, 51)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 500, 52)
	if err != nil {
		b.Fatal(err)
	}
	c := &Classifier{K: 5, Prototypes: protos, Workers: 2}
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.ClassifyContext(context.Background(), channels); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kdtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.ClassifyKDContext(context.Background(), channels); err != nil {
				b.Fatal(err)
			}
		}
	})
}
