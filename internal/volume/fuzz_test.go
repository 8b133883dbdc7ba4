package volume

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// overflowHeaders declare a voxel count past int: 2097152³ = 2^63 and
// 4194304³ = 2^66, which a wrapping product turns negative and zero.
var overflowHeaders = []string{
	"MVOL1 %s 2097152 2097152 2097152 1 1 1 0 0 0\n",
	"MVOL1 %s 4194304 4194304 4194304 1 1 1 0 0 0\n",
}

// nonFiniteHeaders declare a NaN spacing and an infinite origin on an
// otherwise well-formed scalar volume.
var nonFiniteHeaders = []string{
	"MVOL1 scalar 1 1 1 NaN 1 1 0 0 0\n\x00\x00\x00\x00",
	"MVOL1 scalar 1 1 1 1 1 1 0 Inf 0\n\x00\x00\x00\x00",
}

// addOverflowSeeds seeds a reader's corpus with overflowHeaders for the
// given volume kind.
func addOverflowSeeds(f *testing.F, kind string) {
	for _, h := range overflowHeaders {
		f.Add([]byte(fmt.Sprintf(h, kind)))
	}
}

// checkParsed is the property every reader's accepted output must hold:
// a valid grid with finite spacing and origin whose voxel count,
// computed without wrapping, is the data length.
func checkParsed(t *testing.T, g Grid, n int) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("parser returned invalid grid: %v", err)
	}
	for _, v := range [...]float64{g.Spacing.X, g.Spacing.Y, g.Spacing.Z, g.Origin.X, g.Origin.Y, g.Origin.Z} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("parser returned grid %v with a non-finite spacing or origin %v", g, v)
		}
	}
	want := 1
	for _, d := range [3]int{g.NX, g.NY, g.NZ} {
		if want > math.MaxInt/d {
			t.Fatalf("parser returned grid %v whose voxel count overflows int", g)
		}
		want *= d
	}
	if n != want {
		t.Fatalf("data length %d != grid %d", n, want)
	}
}

// FuzzReadScalar hardens the MVOL parser against malformed input: any
// byte stream must either parse into a structurally valid volume or
// return an error — never panic or allocate absurdly.
func FuzzReadScalar(f *testing.F) {
	// Seed with a valid volume and a few mutations.
	s := NewScalar(NewGrid(2, 3, 4, 1))
	s.Set(1, 2, 3, 7)
	var buf bytes.Buffer
	if err := WriteScalar(&buf, s); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("MVOL1 scalar 2 2 2 1 1 1 0 0 0\n"))
	f.Add([]byte("MVOL1 labels 1 1 1 1 1 1 0 0 0\nx"))
	f.Add([]byte("garbage"))
	f.Add([]byte("MVOL1 scalar 1000000 1000000 1000000 1 1 1 0 0 0\n"))
	addOverflowSeeds(f, "scalar")
	for _, h := range nonFiniteHeaders {
		f.Add([]byte(h))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against absurd allocations from huge declared dims: the
		// reader allocates NX*NY*NZ floats, so cap the accepted header
		// sizes here the same way a server would.
		if len(data) > 1<<20 {
			return
		}
		vol, err := ReadScalar(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkParsed(t, vol.Grid, len(vol.Data))
	})
}

// FuzzReadLabels mirrors FuzzReadScalar for the label parser.
func FuzzReadLabels(f *testing.F) {
	l := NewLabels(NewGrid(2, 2, 2, 1))
	l.Set(0, 1, 1, LabelBrain)
	var buf bytes.Buffer
	if err := WriteLabels(&buf, l); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("MVOL1 labels 2 2 2 1 1 1 0 0 0\n"))
	addOverflowSeeds(f, "labels")

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		vol, err := ReadLabels(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkParsed(t, vol.Grid, len(vol.Data))
	})
}

// FuzzReadField mirrors FuzzReadScalar for the displacement-field
// parser.
func FuzzReadField(f *testing.F) {
	fl := NewField(NewGrid(2, 2, 2, 1))
	fl.DX[3] = 0.5
	var buf bytes.Buffer
	if err := WriteField(&buf, fl); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("MVOL1 field 2 2 2 1 1 1 0 0 0\n"))
	addOverflowSeeds(f, "field")
	for _, h := range nonFiniteHeaders {
		f.Add([]byte(strings.Replace(h, "scalar", "field", 1) + strings.Repeat("\x00", 8)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		vol, err := ReadField(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, c := range [][]float32{vol.DX, vol.DY, vol.DZ} {
			checkParsed(t, vol.Grid, len(c))
		}
	})
}
