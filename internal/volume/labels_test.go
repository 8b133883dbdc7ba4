package volume

import (
	"testing"

	"repro/internal/geom"
)

func TestLabelsSetAt(t *testing.T) {
	l := NewLabels(NewGrid(3, 3, 3, 1))
	l.Set(1, 1, 1, LabelBrain)
	if got := l.At(1, 1, 1); got != LabelBrain {
		t.Errorf("At = %v", got)
	}
	if got := l.At(5, 5, 5); got != LabelBackground {
		t.Errorf("out-of-bounds At = %v, want background", got)
	}
}

func TestLabelsAtWorldNearest(t *testing.T) {
	g := Grid{NX: 4, NY: 4, NZ: 4, Spacing: geom.V(2, 2, 2)}
	l := NewLabels(g)
	l.Set(1, 1, 1, LabelTumor)
	// World point (2.6, 2.4, 1.8) is nearest voxel (1,1,1).
	if got := l.AtWorld(geom.V(2.6, 2.4, 1.8)); got != LabelTumor {
		t.Errorf("AtWorld = %v, want tumor", got)
	}
}

func TestMaskAndCount(t *testing.T) {
	l := NewLabels(NewGrid(2, 2, 1, 1))
	l.Data[0] = LabelBrain
	l.Data[3] = LabelBrain
	m := l.Mask(LabelBrain)
	if !m[0] || m[1] || m[2] || !m[3] {
		t.Errorf("Mask = %v", m)
	}
	if got := l.Count(LabelBrain); got != 2 {
		t.Errorf("Count = %d", got)
	}
	ma := l.MaskAny(LabelBrain, LabelBackground)
	for i, v := range ma {
		if !v {
			t.Errorf("MaskAny[%d] = false", i)
		}
	}
}

func TestPresent(t *testing.T) {
	l := NewLabels(NewGrid(2, 2, 1, 1))
	l.Data[1] = LabelCSF
	l.Data[2] = LabelSkull
	got := l.Present()
	want := []Label{LabelBackground, LabelSkull, LabelCSF}
	if len(got) != len(want) {
		t.Fatalf("Present = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Present = %v, want %v", got, want)
		}
	}
}

func TestDiceCoefficient(t *testing.T) {
	a := NewLabels(NewGrid(4, 1, 1, 1))
	b := NewLabels(NewGrid(4, 1, 1, 1))
	a.Data = []Label{1, 1, 0, 0}
	b.Data = []Label{1, 0, 1, 0}
	d, err := a.DiceCoefficient(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0.5 { // 2*1 / (2+2)
		t.Errorf("Dice = %v, want 0.5", d)
	}
	// Identical sets give 1.
	d, _ = a.DiceCoefficient(a, 1)
	if d != 1 {
		t.Errorf("self Dice = %v", d)
	}
	// Both empty give 1.
	d, _ = a.DiceCoefficient(b, 9)
	if d != 1 {
		t.Errorf("empty Dice = %v", d)
	}
	if _, err := a.DiceCoefficient(NewLabels(NewGrid(5, 1, 1, 1)), 1); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestLabelName(t *testing.T) {
	if LabelName(LabelBrain) != "brain" {
		t.Error("brain name")
	}
	if LabelName(Label(200)) != "label-200" {
		t.Error("fallback name")
	}
}

func TestLabelsClone(t *testing.T) {
	l := NewLabels(NewGrid(2, 2, 2, 1))
	l.Set(0, 0, 0, LabelSkin)
	c := l.Clone()
	c.Set(0, 0, 0, LabelCSF)
	if l.At(0, 0, 0) != LabelSkin {
		t.Error("clone aliases original")
	}
}
