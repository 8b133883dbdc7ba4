package classify

import (
	"context"
	"errors"
	"testing"

	"repro/internal/volume"
)

// twoClassSetup builds a one-channel volume and a classifier with two
// well-separated intensity classes.
func twoClassSetup() (*Classifier, []*volume.Scalar) {
	g := volume.NewGrid(16, 16, 16, 1)
	ch := volume.NewScalar(g)
	for i := range ch.Data {
		if i%2 == 0 {
			ch.Data[i] = 100
		}
	}
	cl := &Classifier{
		K: 1,
		Prototypes: []Prototype{
			{Features: []float64{0}, Label: volume.LabelCSF, VoxelIndex: 1},
			{Features: []float64{100}, Label: volume.LabelBrain, VoxelIndex: 0},
		},
		Workers: 2,
	}
	return cl, []*volume.Scalar{ch}
}

func TestClassifyContextCancelled(t *testing.T) {
	cl, channels := twoClassSetup()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.ClassifyContext(ctx, channels); !errors.Is(err, context.Canceled) {
		t.Errorf("ClassifyContext err = %v, want context.Canceled", err)
	}
	if _, err := cl.ClassifyKDContext(ctx, channels); !errors.Is(err, context.Canceled) {
		t.Errorf("ClassifyKDContext err = %v, want context.Canceled", err)
	}
}

func TestClassifyContextBackgroundMatchesClassify(t *testing.T) {
	cl, channels := twoClassSetup()
	a, err := cl.ClassifyContext(context.Background(), channels)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.ClassifyContext(context.Background(), channels)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("voxel %d: Classify=%d ClassifyContext=%d", i, a.Data[i], b.Data[i])
		}
	}
}
