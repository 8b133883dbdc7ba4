package phantom

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/volume"
)

func smallParams() Params {
	p := DefaultParams(32)
	p.NoiseStd = 1
	return p
}

func TestGenerateLabelsContainsAllTissues(t *testing.T) {
	p := smallParams()
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	l := GenerateLabels(g, p)
	for _, want := range []volume.Label{
		volume.LabelBackground, volume.LabelSkin, volume.LabelSkull,
		volume.LabelCSF, volume.LabelBrain, volume.LabelVentricle,
		volume.LabelTumor, volume.LabelFalx,
	} {
		if l.Count(want) == 0 {
			t.Errorf("label %s missing from phantom", volume.LabelName(want))
		}
	}
}

func TestAnatomyIsNested(t *testing.T) {
	// Walking from the volume center outward along +x must encounter
	// brain tissue before CSF before skull before skin before air.
	p := smallParams()
	p.TumorCenter = geom.V(0.35, 0.3, 0.1)
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	l := GenerateLabels(g, p)
	order := map[volume.Label]int{
		volume.LabelVentricle:  0,
		volume.LabelFalx:       0,
		volume.LabelTumor:      0,
		volume.LabelBrain:      0,
		volume.LabelCSF:        1,
		volume.LabelSkull:      2,
		volume.LabelSkin:       3,
		volume.LabelBackground: 4,
	}
	c := p.N / 2
	prev := -1
	for i := c; i < p.N; i++ {
		lab := l.At(i, c, c)
		rank, ok := order[lab]
		if !ok {
			t.Fatalf("unexpected label %d at i=%d", lab, i)
		}
		if rank < prev {
			t.Fatalf("anatomy not nested: rank %d after %d at i=%d (%s)",
				rank, prev, i, volume.LabelName(lab))
		}
		prev = rank
	}
	if prev != 4 {
		t.Error("ray never reached background")
	}
}

func TestRenderMRContrast(t *testing.T) {
	p := smallParams()
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	l := GenerateLabels(g, p)
	s := RenderMR(l, p, rand.New(rand.NewSource(5)))
	// Mean intensity inside the brain should be near its model value
	// (within partial volume + noise tolerance). The skin layer is
	// sub-voxel thin on small grids so it is only checked for ordering.
	st := s.ComputeStats(l.Mask(volume.LabelBrain))
	if want := p.Intensity[volume.LabelBrain]; math.Abs(st.Mean-want) > 0.25*want {
		t.Errorf("brain mean intensity = %v, want ~%v", st.Mean, want)
	}
	skin := s.ComputeStats(l.Mask(volume.LabelSkin))
	skull := s.ComputeStats(l.Mask(volume.LabelSkull))
	if skin.Mean <= skull.Mean {
		t.Errorf("skin (%v) should be brighter than skull (%v)", skin.Mean, skull.Mean)
	}
	// Brain and ventricle must be separable (the active surface relies
	// on edge contrast).
	b := s.ComputeStats(l.Mask(volume.LabelBrain))
	v := s.ComputeStats(l.Mask(volume.LabelVentricle))
	if math.Abs(b.Mean-v.Mean) < 30 {
		t.Errorf("brain/ventricle contrast too low: %v vs %v", b.Mean, v.Mean)
	}
}

func TestRenderMRDeterministicPerSeed(t *testing.T) {
	p := smallParams()
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	l := GenerateLabels(g, p)
	a := RenderMR(l, p, rand.New(rand.NewSource(7)))
	b := RenderMR(l, p, rand.New(rand.NewSource(7)))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different volumes")
		}
	}
}

func TestBrainShiftFieldLocalizedToBrain(t *testing.T) {
	p := smallParams()
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	l := GenerateLabels(g, p)
	f := BrainShiftField(g, l, p)
	// Skull and skin voxels must not move.
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				lab := l.At(i, j, k)
				if lab == volume.LabelSkull || lab == volume.LabelSkin || lab == volume.LabelBackground {
					if f.At(i, j, k).Norm() > 1e-9 {
						t.Fatalf("non-brain voxel (%d,%d,%d, %s) moved", i, j, k, volume.LabelName(lab))
					}
				}
			}
		}
	}
	// Peak displacement is near the requested magnitude.
	if m := f.MaxMagnitude(); m < 0.5*p.ShiftMagnitude || m > 1.01*p.ShiftMagnitude {
		t.Errorf("max displacement = %v, want near %v", m, p.ShiftMagnitude)
	}
}

func TestBrainShiftFieldIsSmooth(t *testing.T) {
	p := smallParams()
	g := volume.NewGrid(p.N, p.N, p.N, p.Spacing)
	l := GenerateLabels(g, p)
	f := BrainShiftField(g, l, p)
	// Inside the brain (where the continuum deformation lives) the
	// displacement gradient must stay below 1 so the warp does not fold.
	// The brain/CSF interface under the craniotomy is excluded: the
	// surface detaching from the skull there is a real discontinuity.
	inBrain := l.MaskAny(volume.LabelBrain, volume.LabelVentricle,
		volume.LabelTumor, volume.LabelFalx)
	maxGrad := 0.0
	for k := 1; k < g.NZ; k++ {
		for j := 1; j < g.NY; j++ {
			for i := 1; i < g.NX; i++ {
				if !inBrain[g.Index(i, j, k)] {
					continue
				}
				d0 := f.At(i, j, k)
				for _, n := range [][3]int{{i - 1, j, k}, {i, j - 1, k}, {i, j, k - 1}} {
					if !inBrain[g.Index(n[0], n[1], n[2])] {
						continue
					}
					dn := f.At(n[0], n[1], n[2])
					grad := d0.Sub(dn).Norm() / p.Spacing
					if grad > maxGrad {
						maxGrad = grad
					}
				}
			}
		}
	}
	if maxGrad >= 1 {
		t.Errorf("deformation gradient %v >= 1: warp may fold", maxGrad)
	}
}

func TestGenerateCaseConsistency(t *testing.T) {
	c := Generate(smallParams())
	if c.Preop == nil || c.Intraop == nil || c.Truth == nil {
		t.Fatal("incomplete case")
	}
	// The intraop scan must differ from preop (deformation happened)...
	d, err := c.Preop.AbsDiff(c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if d.ComputeStats(c.BrainMask).Mean < 1 {
		t.Error("intraop scan suspiciously close to preop")
	}
	// ...but warping preop by the ground truth must reproduce intraop
	// closely outside the resection cavity.
	warped := c.Truth.WarpScalar(c.Preop)
	resection := c.IntraopLabels.Mask(volume.LabelResection)
	mask := make([]bool, len(resection))
	for i := range mask {
		mask[i] = c.BrainMask[i] && !resection[i]
	}
	wd, err := warped.AbsDiff(c.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	mean := wd.ComputeStats(mask).Mean
	if mean > 8 {
		t.Errorf("ground-truth warp residual = %v, want small", mean)
	}
	// Tumor is resected in the intraop labels.
	if c.IntraopLabels.Count(volume.LabelTumor) != 0 {
		t.Error("tumor still present after resection")
	}
	if c.IntraopLabels.Count(volume.LabelResection) == 0 {
		t.Error("no resection cavity")
	}
}

func TestGenerateReproducible(t *testing.T) {
	a := Generate(smallParams())
	b := Generate(smallParams())
	for i := range a.Preop.Data {
		if a.Preop.Data[i] != b.Preop.Data[i] {
			t.Fatal("phantom generation not reproducible")
		}
	}
}

// TestTissueMaskSplitsBrainMask: the tissue mask is the brain mask
// where the intraoperative label is still intracranial tissue, so it
// keeps the resection cavity and drops the gap the shift opened at the
// brain's edge — both non-empty on the default case.
func TestTissueMaskSplitsBrainMask(t *testing.T) {
	c := Generate(smallParams())
	tissue, gap, cavity := 0, 0, 0
	for i, in := range c.BrainMask {
		lab := c.IntraopLabels.Data[i]
		switch {
		case c.TissueMask[i] && (!in || !volume.IsBrainTissue(lab)):
			t.Fatalf("voxel %d: in the tissue mask with brain mask %v, label %v", i, in, lab)
		case c.TissueMask[i]:
			tissue++
			if lab == volume.LabelResection {
				cavity++
			}
		case in:
			gap++
			if volume.IsBrainTissue(lab) {
				t.Fatalf("voxel %d: brain tissue label %v left out of the tissue mask", i, lab)
			}
		}
	}
	if tissue == 0 || gap == 0 || cavity == 0 {
		t.Errorf("tissue %d, gap %d, of which cavity %d voxels: want each > 0", tissue, gap, cavity)
	}
	t.Logf("brain mask %d voxels: tissue %d (cavity %d), gap %d", tissue+gap, tissue, cavity, gap)
}
