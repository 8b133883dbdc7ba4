package volume

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestScalarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := Grid{NX: 5, NY: 4, NZ: 3, Spacing: geom.V(0.9, 1, 2.5), Origin: geom.V(-1, 2, 3)}
	s := NewScalar(g)
	for i := range s.Data {
		s.Data[i] = float32(rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := WriteScalar(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScalar(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Grid != s.Grid {
		t.Errorf("grid mismatch: %v vs %v", back.Grid, s.Grid)
	}
	for i := range s.Data {
		if back.Data[i] != s.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	g := NewGrid(4, 4, 2, 1)
	l := NewLabels(g)
	l.Set(1, 2, 1, LabelVentricle)
	l.Set(3, 3, 0, LabelSkull)
	var buf bytes.Buffer
	if err := WriteLabels(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l.Data {
		if back.Data[i] != l.Data[i] {
			t.Fatalf("label mismatch at %d", i)
		}
	}
}

func TestFieldRoundTrip(t *testing.T) {
	g := NewGrid(3, 3, 3, 1)
	f := NewField(g)
	f.Set(1, 1, 1, geom.V(0.25, -1, 4))
	var buf bytes.Buffer
	if err := WriteField(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadField(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(1, 1, 1).Sub(f.At(1, 1, 1)).MaxAbs() > 1e-7 {
		t.Error("field mismatch after round trip")
	}
}

func TestReadRejectsWrongKind(t *testing.T) {
	s := NewScalar(NewGrid(2, 2, 2, 1))
	var buf bytes.Buffer
	if err := WriteScalar(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLabels(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("ReadLabels accepted a scalar stream")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadScalar(strings.NewReader("not a volume\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadScalar(strings.NewReader("MVOL1 scalar -1 2 2 1 1 1 0 0 0\n")); err == nil {
		t.Error("negative dims accepted")
	}
	if _, err := ReadScalar(strings.NewReader("MVOL1 scalar 4 4 4 1 1 1 0 0 0\nshort")); err == nil {
		t.Error("truncated data accepted")
	}
}

// TestReadRejectsOverflowingHeader covers the overflowHeaders: a
// capped voxel product that wraps either panics in the allocation or
// returns an empty volume on a 7.4e19-voxel grid.
func TestReadRejectsOverflowingHeader(t *testing.T) {
	readers := map[string]func(io.Reader) error{
		"scalar": func(r io.Reader) error { _, err := ReadScalar(r); return err },
		"labels": func(r io.Reader) error { _, err := ReadLabels(r); return err },
		"field":  func(r io.Reader) error { _, err := ReadField(r); return err },
	}
	for kind, read := range readers {
		for _, h := range overflowHeaders {
			header := fmt.Sprintf(h, kind)
			if err := read(strings.NewReader(header)); err == nil {
				t.Errorf("%q: accepted", header)
			}
		}
	}
}

// TestReadRejectsNonFiniteHeader: a header may spell NaN or Inf, which
// the %g verbs parse; the grid it declares is rejected before any data
// is read.
func TestReadRejectsNonFiniteHeader(t *testing.T) {
	for _, header := range nonFiniteHeaders {
		if _, err := ReadScalar(strings.NewReader(header)); err == nil {
			t.Errorf("%q: accepted", header)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewScalar(NewGrid(3, 3, 3, 1))
	s.Set(1, 1, 1, 3.5)
	path := filepath.Join(dir, "vol.mvol")
	if err := SaveScalar(path, s); err != nil {
		t.Fatal(err)
	}
	back, err := LoadScalar(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(1, 1, 1) != 3.5 {
		t.Error("file round trip mismatch")
	}
	l := NewLabels(NewGrid(2, 2, 2, 1))
	l.Set(0, 1, 0, LabelCSF)
	lpath := filepath.Join(dir, "lab.mvol")
	if err := SaveLabels(lpath, l); err != nil {
		t.Fatal(err)
	}
	lback, err := LoadLabels(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if lback.At(0, 1, 0) != LabelCSF {
		t.Error("label file round trip mismatch")
	}
	f := NewField(NewGrid(2, 2, 2, 1))
	f.Set(1, 0, 1, geom.V(1, 2, 3))
	fpath := filepath.Join(dir, "field.mvol")
	if err := SaveField(fpath, f); err != nil {
		t.Fatal(err)
	}
	fback, err := LoadField(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if fback.At(1, 0, 1).Sub(geom.V(1, 2, 3)).MaxAbs() > 1e-6 {
		t.Error("field file round trip mismatch")
	}
}

func TestWritePGMSlice(t *testing.T) {
	s := NewScalar(NewGrid(4, 3, 2, 1))
	s.Set(0, 0, 0, 0)
	s.Set(3, 2, 0, 100)
	var buf bytes.Buffer
	if err := WritePGMSlice(&buf, s, 0, 0, 100); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n4 3\n255\n")) {
		t.Errorf("bad PGM header: %q", out[:12])
	}
	pix := out[len("P5\n4 3\n255\n"):]
	if len(pix) != 12 {
		t.Fatalf("pixel payload = %d bytes, want 12", len(pix))
	}
	if pix[0] != 0 || pix[11] != 255 {
		t.Errorf("windowing wrong: first=%d last=%d", pix[0], pix[11])
	}
	if err := WritePGMSlice(&buf, s, 9, 0, 1); err == nil {
		t.Error("out-of-range slice accepted")
	}
}
