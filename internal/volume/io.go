package volume

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/geom"
)

// The on-disk format is a minimal self-describing container: an ASCII
// header line followed by little-endian binary voxel data. It plays the
// role the paper's scanner DICOM/SPL formats played — moving volumes
// between pipeline stages and tools — without external dependencies.
//
//	MVOL1 <kind> <nx> <ny> <nz> <sx> <sy> <sz> <ox> <oy> <oz>\n
//	<binary data>
//
// kind is "scalar" (float32), "labels" (uint8) or "field" (3x float32
// planes: all DX, then all DY, then all DZ).

const magic = "MVOL1"

func writeHeader(w io.Writer, kind string, g Grid) error {
	_, err := fmt.Fprintf(w, "%s %s %d %d %d %g %g %g %g %g %g\n",
		magic, kind, g.NX, g.NY, g.NZ,
		g.Spacing.X, g.Spacing.Y, g.Spacing.Z,
		g.Origin.X, g.Origin.Y, g.Origin.Z)
	return err
}

func readHeader(r *bufio.Reader) (kind string, g Grid, err error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", Grid{}, fmt.Errorf("volume: reading header: %w", err)
	}
	var m string
	var sx, sy, sz, ox, oy, oz float64
	n, err := fmt.Sscanf(line, "%s %s %d %d %d %g %g %g %g %g %g",
		&m, &kind, &g.NX, &g.NY, &g.NZ, &sx, &sy, &sz, &ox, &oy, &oz)
	if err != nil || n != 11 {
		return "", Grid{}, fmt.Errorf("volume: malformed header %q", line)
	}
	if m != magic {
		return "", Grid{}, fmt.Errorf("volume: bad magic %q", m)
	}
	g.Spacing = geom.V(sx, sy, sz)
	g.Origin = geom.V(ox, oy, oz)
	if err := g.Validate(); err != nil {
		return "", Grid{}, err
	}
	// Refuse to allocate for absurd declared dimensions: a malformed or
	// hostile header must not drive a multi-gigabyte allocation before
	// any data has been read. 2^30 voxels (4 GiB of float32) comfortably
	// covers clinical volumes; Len is exact on the validated grid.
	if g.Len() > 1<<30 {
		return "", Grid{}, fmt.Errorf("volume: declared size %dx%dx%d exceeds the 2^30-voxel limit",
			g.NX, g.NY, g.NZ)
	}
	return kind, g, nil
}

// WriteScalar serializes s to w.
func WriteScalar(w io.Writer, s *Scalar) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, "scalar", s.Grid); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, s.Data); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadScalar deserializes a scalar volume from r.
func ReadScalar(r io.Reader) (*Scalar, error) {
	br := bufio.NewReader(r)
	kind, g, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if kind != "scalar" {
		return nil, fmt.Errorf("volume: expected scalar, found %q", kind)
	}
	s := NewScalar(g)
	if err := binary.Read(br, binary.LittleEndian, s.Data); err != nil {
		return nil, fmt.Errorf("volume: reading scalar data: %w", err)
	}
	return s, nil
}

// WriteLabels serializes l to w.
func WriteLabels(w io.Writer, l *Labels) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, "labels", l.Grid); err != nil {
		return err
	}
	buf := make([]byte, len(l.Data))
	for i, v := range l.Data {
		buf[i] = byte(v)
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadLabels deserializes a label volume from r.
func ReadLabels(r io.Reader) (*Labels, error) {
	br := bufio.NewReader(r)
	kind, g, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if kind != "labels" {
		return nil, fmt.Errorf("volume: expected labels, found %q", kind)
	}
	l := NewLabels(g)
	buf := make([]byte, len(l.Data))
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("volume: reading label data: %w", err)
	}
	for i, b := range buf {
		l.Data[i] = Label(b)
	}
	return l, nil
}

// WriteField serializes f to w.
func WriteField(w io.Writer, f *Field) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, "field", f.Grid); err != nil {
		return err
	}
	for _, plane := range [][]float32{f.DX, f.DY, f.DZ} {
		if err := binary.Write(bw, binary.LittleEndian, plane); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadField deserializes a displacement field from r.
func ReadField(r io.Reader) (*Field, error) {
	br := bufio.NewReader(r)
	kind, g, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if kind != "field" {
		return nil, fmt.Errorf("volume: expected field, found %q", kind)
	}
	f := NewField(g)
	for _, plane := range [][]float32{f.DX, f.DY, f.DZ} {
		if err := binary.Read(br, binary.LittleEndian, plane); err != nil {
			return nil, fmt.Errorf("volume: reading field data: %w", err)
		}
	}
	return f, nil
}

// SaveScalar writes s to the named file.
func SaveScalar(path string, s *Scalar) error {
	fp, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fp.Close()
	if err := WriteScalar(fp, s); err != nil {
		return err
	}
	return fp.Close()
}

// LoadScalar reads a scalar volume from the named file.
func LoadScalar(path string) (*Scalar, error) {
	fp, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fp.Close()
	return ReadScalar(fp)
}

// SaveLabels writes l to the named file.
func SaveLabels(path string, l *Labels) error {
	fp, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fp.Close()
	if err := WriteLabels(fp, l); err != nil {
		return err
	}
	return fp.Close()
}

// LoadLabels reads a label volume from the named file.
func LoadLabels(path string) (*Labels, error) {
	fp, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fp.Close()
	return ReadLabels(fp)
}

// SaveField writes f to the named file.
func SaveField(path string, f *Field) error {
	fp, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fp.Close()
	if err := WriteField(fp, f); err != nil {
		return err
	}
	return fp.Close()
}

// LoadField reads a displacement field from the named file.
func LoadField(path string) (*Field, error) {
	fp, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fp.Close()
	return ReadField(fp)
}

// WritePGMSlice writes the axial slice k of s as an 8-bit PGM image,
// windowed to [lo, hi]. This is the reproduction's stand-in for the
// paper's 2D figure panels (Fig. 4).
func WritePGMSlice(w io.Writer, s *Scalar, k int, lo, hi float64) error {
	if k < 0 || k >= s.Grid.NZ {
		return fmt.Errorf("volume: slice %d out of range [0,%d)", k, s.Grid.NZ)
	}
	if hi <= lo {
		hi = lo + 1
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", s.Grid.NX, s.Grid.NY)
	for j := 0; j < s.Grid.NY; j++ {
		for i := 0; i < s.Grid.NX; i++ {
			v := (s.At(i, j, k) - lo) / (hi - lo) * 255
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			bw.WriteByte(byte(v))
		}
	}
	return bw.Flush()
}

// SavePGMSlice writes slice k of s to the named PGM file with automatic
// windowing to the volume's min/max.
func SavePGMSlice(path string, s *Scalar, k int) error {
	lo, hi := s.MinMax()
	fp, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fp.Close()
	if err := WritePGMSlice(fp, s, k, lo, hi); err != nil {
		return err
	}
	return fp.Close()
}
