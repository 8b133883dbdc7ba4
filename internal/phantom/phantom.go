// Package phantom generates synthetic multi-tissue head phantoms and
// simulated neurosurgical deformations.
//
// The paper evaluates on two clinical neurosurgery cases imaged with an
// intraoperative 0.5T MR scanner — data we cannot obtain. The phantom
// is the substitution: it produces (1) a preoperative-style labeled
// anatomy (skin, skull, CSF, brain, ventricles, falx, tumor), (2) an MR
// intensity volume with per-tissue contrast, partial-volume smoothing,
// scanner noise and a smooth bias field, and (3) an "intraoperative"
// scan pair produced by a known smooth brain-shift deformation plus
// tumor resection. Because the deformation is known analytically, the
// reproduction can report *quantitative* registration accuracy where
// the paper relied on visual inspection (its Figures 4 and 5).
package phantom

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/volume"
)

// Params controls phantom generation. All geometry is expressed as
// fractions of the grid extent so the same parameters scale from tiny
// test volumes to clinical 256x256x60 sizes.
type Params struct {
	// Grid geometry.
	N       int     // cubic grid dimension (NxNxN)
	Spacing float64 // voxel size, mm
	// Dims and SpacingVec, when set (all components positive), override
	// N and Spacing with an anisotropic non-cubic acquisition geometry —
	// e.g. the paper's typical 256x256x60 intraoperative MRI with thick
	// slices.
	Dims       [3]int
	SpacingVec geom.Vec3

	// Anatomy, as fractions of the half-extent.
	HeadRadius      float64 // outer skin ellipsoid
	SkullThickness  float64 // fraction of half-extent
	CSFThickness    float64
	VentricleRadius float64
	VentricleOffset float64 // lateral offset of each ventricle
	FalxHalfWidth   float64 // half-thickness of the interhemispheric membrane
	TumorRadius     float64
	TumorCenter     geom.Vec3 // fractional position (-1..1 of half-extent)

	// MR intensity model.
	Intensity      map[volume.Label]float64
	NoiseStd       float64 // additive Gaussian noise (intensity units)
	BiasAmplitude  float64 // multiplicative smooth bias field amplitude (0..1)
	PartialVolumeS float64 // Gaussian sigma (voxels) for partial-volume blur

	// Surgery simulation.
	ShiftMagnitude float64   // peak brain-shift displacement, mm
	ShiftSigma     float64   // Gaussian spatial scale of the shift, mm
	CraniotomyDir  geom.Vec3 // outward direction of the craniotomy site

	Seed int64
}

// DefaultParams returns parameters producing a realistic head phantom
// on an N^3 grid with 1mm voxels.
func DefaultParams(n int) Params {
	return Params{
		N:               n,
		Spacing:         1,
		HeadRadius:      0.92,
		SkullThickness:  0.07,
		CSFThickness:    0.05,
		VentricleRadius: 0.16,
		VentricleOffset: 0.18,
		FalxHalfWidth:   0.015,
		TumorRadius:     0.14,
		TumorCenter:     geom.V(0.35, 0.3, 0.1),
		Intensity: map[volume.Label]float64{
			volume.LabelBackground: 5,
			volume.LabelSkin:       200,
			volume.LabelSkull:      40,
			volume.LabelCSF:        70,
			volume.LabelBrain:      120,
			volume.LabelVentricle:  30,
			volume.LabelTumor:      170,
			volume.LabelFalx:       60,
			volume.LabelResection:  12,
		},
		NoiseStd:       3,
		BiasAmplitude:  0.05,
		PartialVolumeS: 0.6,
		ShiftMagnitude: 6,
		ShiftSigma:     0, // 0 = auto: 45% of head radius
		CraniotomyDir:  geom.V(0, 1, 0),
		Seed:           1,
	}
}

// Case is a complete synthetic neurosurgery case: a preoperative scan
// with its segmentation, an intraoperative scan after resection and
// brain shift, and the ground-truth deformation linking them.
type Case struct {
	Grid        volume.Grid
	Preop       *volume.Scalar
	PreopLabels *volume.Labels
	Intraop     *volume.Scalar
	// IntraopLabels is the deformed segmentation (with the resection
	// cavity marked), i.e. the ideal output of intraoperative tissue
	// classification.
	IntraopLabels *volume.Labels
	// Truth is the ground-truth deformation in the backward-warp
	// convention of volume.Field: Intraop(p) == Preop(p + Truth(p)) up
	// to resection, noise and interpolation.
	Truth *volume.Field
	// BrainMask is true on preoperative brain+ventricle+tumor voxels.
	BrainMask []bool
	// TissueMask is the part of BrainMask that is still intracranial
	// tissue intraoperatively (volume.IsBrainTissue of IntraopLabels):
	// where a registration can be right. The rest of BrainMask is the
	// gap the shift opened, where the truth is not even invertible.
	TissueMask []bool
	Params     Params
}

// TruthRMS returns the RMS difference (mm) over BrainMask between a
// recovered backward field and Truth, and that of the zero field: the
// error rigid registration alone leaves.
func (c *Case) TruthRMS(backward *volume.Field) (rms, rigidOnly float64, err error) {
	if rms, err = backward.RMSDifference(c.Truth, c.BrainMask); err != nil {
		return 0, 0, err
	}
	rigidOnly, err = volume.NewField(c.Grid).RMSDifference(c.Truth, c.BrainMask)
	return rms, rigidOnly, err
}

// headGeometry evaluates the anatomy at world point p and returns its
// tissue label. The head is a set of nested ellipsoids slightly
// elongated along y (anterior-posterior), with a vertical falx plane at
// x=center splitting the cranial vault, two ventricles, and a spherical
// tumor.
type headGeometry struct {
	center  geom.Vec3
	half    float64 // half-extent, mm
	p       Params
	tumorC  geom.Vec3
	ventL   geom.Vec3
	ventR   geom.Vec3
	elongY  float64
	flatZ   float64
	headR   float64
	skullR  float64
	csfR    float64
	brainR  float64
	tumorR  float64
	ventRad float64
	falxHW  float64
	falxTop float64
}

func newHeadGeometry(g volume.Grid, p Params) *headGeometry {
	h := &headGeometry{center: g.Center(), p: p}
	ext := g.Extent()
	h.half = math.Min(ext.X, math.Min(ext.Y, ext.Z)) / 2
	h.elongY = 1.18
	h.flatZ = 0.95
	h.headR = p.HeadRadius * h.half
	h.skullR = h.headR - 0.035*h.half // thin skin layer
	h.csfR = h.skullR - p.SkullThickness*h.half
	h.brainR = h.csfR - p.CSFThickness*h.half
	h.tumorR = p.TumorRadius * h.half
	h.ventRad = p.VentricleRadius * h.half
	h.falxHW = p.FalxHalfWidth * h.half
	// The falx is anatomically ~1-2mm; on coarse grids keep it at least
	// a voxel wide so it remains representable.
	if minHW := 0.55 * g.Spacing.X; h.falxHW < minHW {
		h.falxHW = minHW
	}
	h.falxTop = 0.15 * h.half // falx extends down to z > falxTop
	h.tumorC = h.center.Add(p.TumorCenter.Scale(h.half))
	off := p.VentricleOffset * h.half
	h.ventL = h.center.Add(geom.V(-off, 0, 0))
	h.ventR = h.center.Add(geom.V(off, 0, 0))
	return h
}

// ellipsoidRadius returns the effective radial coordinate of p in the
// head's anisotropic metric; the anatomy surfaces are level sets of it.
func (h *headGeometry) ellipsoidRadius(p geom.Vec3) float64 {
	d := p.Sub(h.center)
	dx := d.X
	dy := d.Y / h.elongY
	dz := d.Z / h.flatZ
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// LabelAt returns the tissue label of world point p.
func (h *headGeometry) LabelAt(p geom.Vec3) volume.Label {
	r := h.ellipsoidRadius(p)
	if r > h.headR {
		return volume.LabelBackground
	}
	if r > h.skullR {
		return volume.LabelSkin
	}
	if r > h.csfR {
		return volume.LabelSkull
	}
	if r > h.brainR {
		return volume.LabelCSF
	}
	// Inside the brain envelope.
	if p.Dist(h.tumorC) < h.tumorR {
		return volume.LabelTumor
	}
	d := p.Sub(h.center)
	// Ventricles: elongated along y.
	for _, vc := range []geom.Vec3{h.ventL, h.ventR} {
		dv := p.Sub(vc)
		vr := math.Sqrt(dv.X*dv.X + (dv.Y/1.8)*(dv.Y/1.8) + dv.Z*dv.Z)
		if vr < h.ventRad {
			return volume.LabelVentricle
		}
	}
	// Falx cerebri: thin stiff membrane in the midsagittal plane, upper
	// part of the cranial vault only.
	if math.Abs(d.X) < h.falxHW && d.Z > -h.falxTop {
		return volume.LabelFalx
	}
	return volume.LabelBrain
}

// GenerateLabels rasterizes the anatomy onto grid g.
func GenerateLabels(g volume.Grid, p Params) *volume.Labels {
	h := newHeadGeometry(g, p)
	l := volume.NewLabels(g)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				l.Data[g.Index(i, j, k)] = h.LabelAt(g.World(i, j, k))
			}
		}
	}
	return l
}

// RenderMR synthesizes an MR intensity volume from a segmentation:
// per-tissue mean intensities, partial-volume Gaussian blur, a smooth
// multiplicative bias field, and additive Gaussian noise.
func RenderMR(l *volume.Labels, p Params, rng *rand.Rand) *volume.Scalar {
	g := l.Grid
	s := volume.NewScalar(g)
	for i, lab := range l.Data {
		s.Data[i] = float32(p.Intensity[lab])
	}
	if p.PartialVolumeS > 0 {
		s = s.SmoothGaussian(p.PartialVolumeS)
	}
	if p.BiasAmplitude > 0 || p.NoiseStd > 0 {
		c := g.Center()
		ext := g.Extent()
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					idx := g.Index(i, j, k)
					v := float64(s.Data[idx])
					if p.BiasAmplitude > 0 {
						w := g.World(i, j, k).Sub(c)
						bias := 1 + p.BiasAmplitude*math.Sin(2*math.Pi*w.X/ext.X)*
							math.Cos(2*math.Pi*w.Y/ext.Y)
						v *= bias
					}
					if p.NoiseStd > 0 {
						v += rng.NormFloat64() * p.NoiseStd
					}
					if v < 0 {
						v = 0
					}
					s.Data[idx] = float32(v)
				}
			}
		}
	}
	return s
}

// BrainShiftField builds the ground-truth deformation used to simulate
// surgery, in the backward-warp convention: the displacement stored at
// intraoperative point p points to its preoperative source. The model is
// a smooth "sinking" of the brain away from the craniotomy site (the
// paper's Figure 4b: significant sinking of the brain surface), decaying
// with distance from the craniotomy and vanishing at and beyond the
// inner skull surface so skin and skull stay fixed.
func BrainShiftField(g volume.Grid, labels *volume.Labels, p Params) *volume.Field {
	h := newHeadGeometry(g, p)
	sigma := p.ShiftSigma
	if sigma <= 0 {
		sigma = 0.45 * h.brainR
	}
	dir := p.CraniotomyDir.Normalized()
	// Craniotomy center: intersection of dir with the brain envelope.
	cranio := h.center.Add(dir.Scale(h.brainR))
	f := volume.NewField(g)
	amp := p.ShiftMagnitude
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				pt := g.World(i, j, k)
				r := h.ellipsoidRadius(pt)
				if r >= h.brainR {
					continue // skull, skin and exterior do not move
				}
				// Gaussian falloff from the craniotomy site: smooth inside
				// the brain, largest at the exposed surface. The brain
				// surface detaches from the skull under the craniotomy
				// (the dark gap of the paper's Figure 5), so the field is
				// deliberately discontinuous across the brain envelope
				// there; everywhere else the Gaussian has already decayed.
				w := math.Exp(-pt.Sub(cranio).NormSq() / (2 * sigma * sigma))
				// The brain sinks inward: displacement at the deformed
				// point looks back along +dir toward the original
				// position, so the stored (backward) displacement is
				// +dir scaled.
				f.Set(i, j, k, dir.Scale(amp*w))
			}
		}
	}
	return f
}

// GridFor returns the acquisition grid described by the parameters.
func GridFor(p Params) volume.Grid {
	if p.Dims[0] > 0 && p.Dims[1] > 0 && p.Dims[2] > 0 &&
		p.SpacingVec.X > 0 && p.SpacingVec.Y > 0 && p.SpacingVec.Z > 0 {
		return volume.Grid{
			NX: p.Dims[0], NY: p.Dims[1], NZ: p.Dims[2],
			Spacing: p.SpacingVec,
		}
	}
	return volume.NewGrid(p.N, p.N, p.N, p.Spacing)
}

// Generate builds a complete synthetic neurosurgery case.
func Generate(p Params) *Case {
	g := GridFor(p)
	rng := rand.New(rand.NewSource(p.Seed))
	labels := GenerateLabels(g, p)
	preop := RenderMR(labels, p, rng)

	truth := BrainShiftField(g, labels, p)

	// Intraoperative labels: deform the preop segmentation, then carve
	// the resection cavity where the tumor used to be (the tumor has
	// been removed; the cavity fills with air/fluid).
	intraLabels := truth.WarpLabels(labels)
	for i, lab := range intraLabels.Data {
		if lab == volume.LabelTumor {
			intraLabels.Data[i] = volume.LabelResection
		}
	}
	// Intraoperative scan: render the deformed anatomy with fresh noise
	// (the paper notes scan-to-scan MR intensity variability).
	rng2 := rand.New(rand.NewSource(p.Seed + 9973))
	intraop := RenderMR(intraLabels, p, rng2)

	brain := labels.MaskAny(volume.LabelBrain, volume.LabelVentricle,
		volume.LabelTumor, volume.LabelFalx)
	tissue := make([]bool, len(brain))
	for i, in := range brain {
		tissue[i] = in && volume.IsBrainTissue(intraLabels.Data[i])
	}
	return &Case{
		Grid:          g,
		Preop:         preop,
		PreopLabels:   labels,
		Intraop:       intraop,
		IntraopLabels: intraLabels,
		Truth:         truth,
		BrainMask:     brain,
		TissueMask:    tissue,
		Params:        p,
	}
}
