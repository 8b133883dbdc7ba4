package classify

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/edt"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// twoClassChannels builds a single-channel volume where the left half
// has intensity ~10 and the right half ~100.
func twoClassChannels(n int, noise float64, seed int64) ([]*volume.Scalar, *volume.Labels) {
	g := volume.NewGrid(n, n, n, 1)
	s := volume.NewScalar(g)
	l := volume.NewLabels(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				v := 10.0
				lab := volume.LabelCSF
				if i >= n/2 {
					v = 100
					lab = volume.LabelBrain
				}
				s.Set(i, j, k, v+rng.NormFloat64()*noise)
				l.Set(i, j, k, lab)
			}
		}
	}
	return []*volume.Scalar{s}, l
}

func TestSamplePrototypesPerClass(t *testing.T) {
	channels, labels := twoClassChannels(8, 0, 1)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[volume.Label]int{}
	for _, p := range protos {
		counts[p.Label]++
	}
	if counts[volume.LabelCSF] != 5 || counts[volume.LabelBrain] != 5 {
		t.Errorf("prototype counts = %v, want 5 each", counts)
	}
}

func TestSamplePrototypesSkipsClasses(t *testing.T) {
	channels, labels := twoClassChannels(8, 0, 1)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 5, 42, volume.LabelCSF)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range protos {
		if p.Label == volume.LabelCSF {
			t.Fatal("skipped class was sampled")
		}
	}
}

func TestSamplePrototypesDeterministic(t *testing.T) {
	channels, labels := twoClassChannels(8, 1, 2)
	a, _ := SamplePrototypesContext(context.Background(), labels, channels, 3, 7)
	b, _ := SamplePrototypesContext(context.Background(), labels, channels, 3, 7)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i].VoxelIndex != b[i].VoxelIndex {
			t.Fatal("same seed gave different prototypes")
		}
	}
}

func TestSamplePrototypesErrors(t *testing.T) {
	channels, labels := twoClassChannels(8, 0, 1)
	if _, err := SamplePrototypesContext(context.Background(), labels, nil, 5, 1); err == nil {
		t.Error("no channels accepted")
	}
	other := volume.NewLabels(volume.NewGrid(4, 4, 4, 1))
	if _, err := SamplePrototypesContext(context.Background(), other, channels, 5, 1); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestClassifyTwoClassesCleanly(t *testing.T) {
	channels, labels := twoClassChannels(12, 2, 3)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{K: 3, Prototypes: protos}
	got, err := c.ClassifyContext(context.Background(), channels)
	if err != nil {
		t.Fatal(err)
	}
	dice, err := got.DiceCoefficient(labels, volume.LabelBrain)
	if err != nil {
		t.Fatal(err)
	}
	if dice < 0.97 {
		t.Errorf("brain Dice = %v, want >= 0.97", dice)
	}
}

func TestClassifyMajorityVote(t *testing.T) {
	// Three prototypes: two of class brain at distance ~2, one of class
	// CSF at distance 0 — with K=3 majority vote should pick brain.
	g := volume.NewGrid(1, 1, 1, 1)
	ch := volume.NewScalar(g)
	ch.Data[0] = 50
	protos := []Prototype{
		{Features: []float64{50}, Label: volume.LabelCSF, VoxelIndex: 0},
		{Features: []float64{52}, Label: volume.LabelBrain, VoxelIndex: 0},
		{Features: []float64{48}, Label: volume.LabelBrain, VoxelIndex: 0},
	}
	c := &Classifier{K: 3, Prototypes: protos}
	out, err := c.ClassifyContext(context.Background(), []*volume.Scalar{ch})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != volume.LabelBrain {
		t.Errorf("majority vote = %v, want brain", out.Data[0])
	}
	// With K=1 the exact-match CSF prototype wins.
	c.K = 1
	out, _ = c.ClassifyContext(context.Background(), []*volume.Scalar{ch})
	if out.Data[0] != volume.LabelCSF {
		t.Errorf("1-NN = %v, want csf", out.Data[0])
	}
}

func TestClassifyWeightsChannels(t *testing.T) {
	// Two channels disagree; weighting selects which dominates.
	g := volume.NewGrid(1, 1, 1, 1)
	ch1 := volume.NewScalar(g)
	ch2 := volume.NewScalar(g)
	ch1.Data[0] = 0  // near proto A in channel 1
	ch2.Data[0] = 10 // near proto B in channel 2
	protos := []Prototype{
		{Features: []float64{0, 0}, Label: volume.LabelCSF},
		{Features: []float64{10, 10}, Label: volume.LabelBrain},
	}
	c := &Classifier{K: 1, Prototypes: protos, Weights: []float64{1, 0.01}}
	out, err := c.ClassifyContext(context.Background(), []*volume.Scalar{ch1, ch2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != volume.LabelCSF {
		t.Error("channel weighting ignored")
	}
	c.Weights = []float64{0.01, 1}
	out, _ = c.ClassifyContext(context.Background(), []*volume.Scalar{ch1, ch2})
	if out.Data[0] != volume.LabelBrain {
		t.Error("channel weighting ignored (flipped)")
	}
}

func TestClassifyErrors(t *testing.T) {
	g := volume.NewGrid(2, 2, 2, 1)
	ch := volume.NewScalar(g)
	c := &Classifier{K: 1}
	if _, err := c.ClassifyContext(context.Background(), []*volume.Scalar{ch}); err == nil {
		t.Error("empty classifier accepted")
	}
	c.Prototypes = []Prototype{{Features: []float64{1, 2}, Label: 1}}
	if _, err := c.ClassifyContext(context.Background(), []*volume.Scalar{ch}); err == nil {
		t.Error("feature arity mismatch accepted")
	}
	c.Prototypes = []Prototype{{Features: []float64{1}, Label: 1}}
	c.Weights = []float64{1, 2, 3}
	if _, err := c.ClassifyContext(context.Background(), []*volume.Scalar{ch}); err == nil {
		t.Error("weight arity mismatch accepted")
	}
}

func TestRefreshFeatures(t *testing.T) {
	channels, labels := twoClassChannels(8, 0, 4)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{K: 1, Prototypes: protos}
	// New scan: intensities shifted by +1000.
	shifted := channels[0].Clone()
	for i := range shifted.Data {
		shifted.Data[i] += 1000
	}
	if err := c.RefreshFeaturesContext(context.Background(), []*volume.Scalar{shifted}); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Prototypes {
		if p.Features[0] < 1000 {
			t.Fatalf("prototype features not refreshed: %v", p.Features)
		}
	}
	// Out-of-range prototype index is rejected.
	c.Prototypes[0].VoxelIndex = 1 << 30
	if err := c.RefreshFeaturesContext(context.Background(), []*volume.Scalar{shifted}); err == nil {
		t.Error("out-of-range prototype accepted")
	}
}

func TestRefreshFeaturesRobustDropsChangedTissue(t *testing.T) {
	channels, labels := twoClassChannels(10, 1, 21)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 20, 22)
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{K: 3, Prototypes: protos}
	before := len(c.Prototypes)
	// Simulate a resection: a block of brain voxels (intensity ~100)
	// becomes cavity (intensity ~5) in the new scan.
	newScan := channels[0].Clone()
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 6; i < 10; i++ {
				newScan.Set(i, j, k, 5)
			}
		}
	}
	if err := c.RefreshFeaturesRobustContext(context.Background(), []*volume.Scalar{newScan}, 4, 3); err != nil {
		t.Fatal(err)
	}
	if len(c.Prototypes) >= before {
		t.Error("no corrupted prototypes were dropped")
	}
	// All surviving brain prototypes have brain-like intensity.
	for _, p := range c.Prototypes {
		if p.Label == volume.LabelBrain && p.Features[0] < 50 {
			t.Errorf("surviving brain prototype has cavity intensity %v", p.Features[0])
		}
	}
}

func TestRefreshFeaturesRobustKeepsMinimum(t *testing.T) {
	channels, labels := twoClassChannels(8, 1, 23)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 6, 24)
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{K: 1, Prototypes: protos}
	// New scan makes ALL brain voxels look like cavity: with minKeep
	// the class must survive.
	newScan := channels[0].Clone()
	for i := range newScan.Data {
		if newScan.Data[i] > 50 {
			newScan.Data[i] = 5
		}
	}
	if err := c.RefreshFeaturesRobustContext(context.Background(), []*volume.Scalar{newScan}, 4, 4); err != nil {
		t.Fatal(err)
	}
	count := map[volume.Label]int{}
	for _, p := range c.Prototypes {
		count[p.Label]++
	}
	if count[volume.LabelBrain] < 4 {
		t.Errorf("brain prototypes = %d, want >= minKeep 4", count[volume.LabelBrain])
	}
}

func TestRefreshFeaturesRobustStableOnCleanData(t *testing.T) {
	channels, labels := twoClassChannels(10, 1, 25)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 15, 26)
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{K: 3, Prototypes: protos}
	before := len(c.Prototypes)
	// Refreshing from the same scan must not drop (non-outlier) protos.
	if err := c.RefreshFeaturesRobustContext(context.Background(), channels, 6, 3); err != nil {
		t.Fatal(err)
	}
	if dropped := before - len(c.Prototypes); dropped > before/10 {
		t.Errorf("clean refresh dropped %d of %d prototypes", dropped, before)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func TestClassifyParallelMatchesSerial(t *testing.T) {
	channels, labels := twoClassChannels(10, 3, 5)
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	serial := &Classifier{K: 3, Prototypes: protos, Workers: 1}
	parallel := &Classifier{K: 3, Prototypes: protos, Workers: 8}
	a, err := serial.ClassifyContext(context.Background(), channels)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.ClassifyContext(context.Background(), channels)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("worker count changed classification at voxel %d", i)
		}
	}
}

// TestClassifyPhantomWithLocalizationChannel reproduces the paper's
// feature design: intensity alone confuses tissues with overlapping
// intensity ranges; adding the spatial localization channel (saturated
// EDT of the preoperative class) disambiguates.
func TestClassifyPhantomWithLocalizationChannel(t *testing.T) {
	p := phantom.DefaultParams(24)
	p.NoiseStd = 4
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	labels := phantom.GenerateLabels(g, p)
	img := phantom.RenderMR(labels, p, rand.New(rand.NewSource(6)))

	// Intensity + per-class localization channels for brain and CSF.
	channels := []*volume.Scalar{
		img,
		edt.Saturated(labels, volume.LabelBrain, 10),
		edt.Saturated(labels, volume.LabelCSF, 10),
	}
	protos, err := SamplePrototypesContext(context.Background(), labels, channels, 20, 17)
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{K: 5, Prototypes: protos, Weights: []float64{1, 10, 10}}
	got, err := c.ClassifyContext(context.Background(), channels)
	if err != nil {
		t.Fatal(err)
	}
	dice, err := got.DiceCoefficient(labels, volume.LabelBrain)
	if err != nil {
		t.Fatal(err)
	}
	if dice < 0.9 {
		t.Errorf("brain Dice with localization channel = %v, want >= 0.9", dice)
	}

	// Intensity-only classifier should do worse (or at best equal).
	protosI, err := SamplePrototypesContext(context.Background(), labels, channels[:1], 20, 17)
	if err != nil {
		t.Fatal(err)
	}
	ci := &Classifier{K: 5, Prototypes: protosI}
	gotI, err := ci.ClassifyContext(context.Background(), channels[:1])
	if err != nil {
		t.Fatal(err)
	}
	diceI, _ := gotI.DiceCoefficient(labels, volume.LabelBrain)
	if diceI > dice+1e-9 {
		t.Errorf("intensity-only Dice %v beat localization Dice %v", diceI, dice)
	}
}
