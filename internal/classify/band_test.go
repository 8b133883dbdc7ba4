package classify

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/edt"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// bandSetup is a phantom scan with the pipeline's channels (intensity
// and a saturated brain distance map) and a classifier sampled from its
// segmentation, plus a previous classification that differs from any
// the classifier gives: every voxel labelled LabelSkull.
func bandSetup(t *testing.T) (*Classifier, []*volume.Scalar, *volume.Labels) {
	t.Helper()
	p := phantom.DefaultParams(20)
	p.NoiseStd = 3
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	labels := phantom.GenerateLabels(g, p)
	img := phantom.RenderMR(labels, p, rand.New(rand.NewSource(3)))
	channels := []*volume.Scalar{img, edt.Saturated(labels, volume.LabelBrain, 10)}
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := volume.NewLabels(g)
	for i := range prev.Data {
		prev.Data[i] = volume.LabelSkull
	}
	return &Classifier{K: 5, Prototypes: protos, Weights: []float64{1, 8}, Workers: 3}, channels, prev
}

// sphericalShell lists the voxels whose centres lie between radii r0
// and r1 of the grid centre.
func sphericalShell(g volume.Grid, r0, r1 float64) []int32 {
	var band []int32
	c := g.Center()
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if d := g.World(i, j, k).Dist(c); d >= r0 && d < r1 {
					band = append(band, int32(g.Index(i, j, k)))
				}
			}
		}
	}
	return band
}

// TestClassifyBandMatchesFullGrid: on every band, a voxel of the band
// gets ClassifyKDContext's label and every other voxel keeps prev's,
// and prev is left as it was.
func TestClassifyBandMatchesFullGrid(t *testing.T) {
	cl, channels, prev := bandSetup(t)
	ctx := context.Background()
	full, err := cl.ClassifyKDContext(ctx, channels)
	if err != nil {
		t.Fatal(err)
	}
	g := channels[0].Grid
	all := make([]int32, g.Len())
	for i := range all {
		all[i] = int32(i)
	}
	shell := sphericalShell(g, 5, 8)
	if len(shell) == 0 || len(shell) == g.Len() {
		t.Fatalf("shell holds %d of %d voxels", len(shell), g.Len())
	}
	for _, tc := range []struct {
		name string
		band []int32
	}{
		{"empty", nil},
		{"one voxel", []int32{int32(g.Index(g.NX/2, g.NY/2, g.NZ/2))}},
		{"all voxels", all},
		{"spherical shell", shell},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := cl.ClassifyBandKDContext(ctx, channels, prev, tc.band)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]bool, g.Len())
			for _, idx := range tc.band {
				in[idx] = true
			}
			for i, l := range got.Data {
				want := prev.Data[i]
				if in[i] {
					want = full.Data[i]
				}
				if l != want {
					t.Fatalf("voxel %d (in band %v): label %d, want %d", i, in[i], l, want)
				}
			}
			for i, l := range prev.Data {
				if l != volume.LabelSkull {
					t.Fatalf("prev voxel %d changed to %d", i, l)
				}
			}
		})
	}
}

func TestClassifyBandErrors(t *testing.T) {
	cl, channels, prev := bandSetup(t)
	ctx := context.Background()
	g := channels[0].Grid
	other := volume.NewLabels(volume.NewGrid(g.NX, g.NY, g.NZ-1, 1))
	if _, err := cl.ClassifyBandKDContext(ctx, channels, other, []int32{0}); err == nil {
		t.Error("previous labels on another grid accepted")
	}
	if _, err := cl.ClassifyBandKDContext(ctx, channels, nil, []int32{0}); err == nil {
		t.Error("nil previous labels accepted")
	}
	for _, idx := range []int32{-1, int32(g.Len())} {
		if _, err := cl.ClassifyBandKDContext(ctx, channels, prev, []int32{idx}); err == nil {
			t.Errorf("band voxel %d outside the grid accepted", idx)
		}
	}
}

// pollCtx is a context that is always cancelled and counts how often
// it is asked.
type pollCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCtx) Err() error {
	c.polls.Add(1)
	return context.Canceled
}

// TestClassifyBandCancelled: a cancelled context returns ctx.Err(), and
// the workers poll it by band position, not by voxel index. The band
// leaves out every voxel whose index is a multiple of the poll period,
// so a poll keyed on the index would never fire inside the loop.
func TestClassifyBandCancelled(t *testing.T) {
	cl, channels, prev := bandSetup(t)
	cl.Workers = 1
	var band []int32
	for i := range channels[0].Grid.Len() {
		if i&ctxCheckMask != 0 {
			band = append(band, int32(i))
		}
	}
	ctx := &pollCtx{Context: context.Background()}
	if _, err := cl.ClassifyBandKDContext(ctx, channels, prev, band); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Outside the loop the context is asked twice: at the end of the
	// batch span and in the final check.
	if got := ctx.polls.Load(); got < 3 {
		t.Errorf("%d polls of a cancelled context: the worker loop never polled", got)
	}
}
