package classify

import (
	"context"
	"math/rand"
	"runtime"
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
