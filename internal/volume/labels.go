package volume

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Label identifies a tissue class in a segmentation. Label 0 is always
// background (air).
type Label uint8

// Canonical tissue labels used by the phantom and the pipeline. The
// actual FEM and classification code is label-agnostic; these constants
// only fix a shared vocabulary between the phantom generator, the
// material table and the reporting code.
const (
	LabelBackground Label = 0
	LabelSkin       Label = 1
	LabelSkull      Label = 2
	LabelCSF        Label = 3
	LabelBrain      Label = 4
	LabelVentricle  Label = 5
	LabelTumor      Label = 6
	LabelFalx       Label = 7
	LabelResection  Label = 8
)

// IsBrainTissue reports whether l is one of the intracranial tissues the
// biomechanical model meshes and deforms: brain, ventricle, tumor, falx
// and resection cavity.
func IsBrainTissue(l Label) bool {
	switch l {
	case LabelBrain, LabelVentricle, LabelTumor, LabelFalx, LabelResection:
		return true
	}
	return false
}

// LabelName returns a human-readable name for the canonical labels.
func LabelName(l Label) string {
	switch l {
	case LabelBackground:
		return "background"
	case LabelSkin:
		return "skin"
	case LabelSkull:
		return "skull"
	case LabelCSF:
		return "csf"
	case LabelBrain:
		return "brain"
	case LabelVentricle:
		return "ventricle"
	case LabelTumor:
		return "tumor"
	case LabelFalx:
		return "falx"
	case LabelResection:
		return "resection"
	default:
		return fmt.Sprintf("label-%d", l)
	}
}

// Labels is a 3D segmentation volume: one tissue class per voxel.
type Labels struct {
	Grid Grid
	Data []Label
}

// NewLabels allocates a background-filled label volume on grid g.
func NewLabels(g Grid) *Labels {
	return &Labels{Grid: g, Data: make([]Label, g.Len())}
}

// At returns the label at voxel (i, j, k); out of bounds is background.
func (l *Labels) At(i, j, k int) Label {
	if !l.Grid.InBounds(i, j, k) {
		return LabelBackground
	}
	return l.Data[l.Grid.Index(i, j, k)]
}

// Set assigns the label at (i, j, k); out-of-bounds writes are ignored.
func (l *Labels) Set(i, j, k int, v Label) {
	if !l.Grid.InBounds(i, j, k) {
		return
	}
	l.Data[l.Grid.Index(i, j, k)] = v
}

// AtVox returns the label at voxel v; out-of-bounds reads return
// LabelBackground.
func (l *Labels) AtVox(v geom.Voxel) Label { return l.At(v.I, v.J, v.K) }

// AtWorld returns the label at the voxel nearest to world point p.
func (l *Labels) AtWorld(p geom.Vec3) Label {
	return l.AtVox(l.Grid.Voxel(p).Round())
}

// Clone returns a deep copy of l.
func (l *Labels) Clone() *Labels {
	c := &Labels{Grid: l.Grid, Data: make([]Label, len(l.Data))}
	copy(c.Data, l.Data)
	return c
}

// Mask returns a boolean volume that is true where the label equals v.
func (l *Labels) Mask(v Label) []bool {
	m := make([]bool, len(l.Data))
	for i, lab := range l.Data {
		m[i] = lab == v
	}
	return m
}

// MaskAny returns a boolean volume that is true where the label is any
// of the given classes.
func (l *Labels) MaskAny(classes ...Label) []bool {
	set := map[Label]bool{}
	for _, c := range classes {
		set[c] = true
	}
	m := make([]bool, len(l.Data))
	for i, lab := range l.Data {
		m[i] = set[lab]
	}
	return m
}

// Count returns the number of voxels with label v.
func (l *Labels) Count(v Label) int {
	n := 0
	for _, lab := range l.Data {
		if lab == v {
			n++
		}
	}
	return n
}

// Present returns the sorted set of labels occurring in the volume.
func (l *Labels) Present() []Label {
	var seen [256]bool
	for _, lab := range l.Data {
		seen[lab] = true
	}
	var out []Label
	for i, ok := range seen {
		if ok {
			out = append(out, Label(i))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// DiceCoefficient returns the Dice overlap between the voxels labeled v
// in l and in other: 2|A∩B| / (|A|+|B|). It returns 1 when both sets are
// empty, and an error on shape mismatch.
func (l *Labels) DiceCoefficient(other *Labels, v Label) (float64, error) {
	if !l.Grid.SameShape(other.Grid) {
		return 0, fmt.Errorf("volume: shape mismatch %v vs %v", l.Grid, other.Grid)
	}
	var inter, a, b int
	for i := range l.Data {
		la := l.Data[i] == v
		lb := other.Data[i] == v
		if la {
			a++
		}
		if lb {
			b++
		}
		if la && lb {
			inter++
		}
	}
	if a+b == 0 {
		return 1, nil
	}
	return 2 * float64(inter) / float64(a+b), nil
}
