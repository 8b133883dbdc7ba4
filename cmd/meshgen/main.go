// Command meshgen generates an unstructured tetrahedral mesh from a
// labeled 3D volume (the paper's multi-object mesh generator) and
// reports its structure and quality. The input is an MVOL label volume
// or, with -phantom, a generated head phantom. The brain surface can be
// exported as an OFF triangle mesh for external viewers.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/mesh"
	"repro/internal/phantom"
	"repro/internal/volume"
)

func main() {
	labelsPath := flag.String("labels", "", "label volume (.mvol); empty with -phantom generates one")
	usePhantom := flag.Bool("phantom", false, "generate a head phantom instead of reading a file")
	size := flag.Int("size", 64, "phantom grid size")
	cellSize := flag.Int("cell", 2, "mesh cell size (voxels)")
	surfaceOut := flag.String("surface-out", "", "write the brain surface as an OFF file")
	useBCC := flag.Bool("bcc", false, "use the body-centered-cubic lattice instead of the Kuhn split")
	flag.Parse()

	if err := run(*labelsPath, *usePhantom, *size, *cellSize, *useBCC, *surfaceOut); err != nil {
		fmt.Fprintln(os.Stderr, "meshgen:", err)
		os.Exit(1)
	}
}

func run(labelsPath string, usePhantom bool, size, cellSize int, useBCC bool, surfaceOut string) error {
	var labels *volume.Labels
	switch {
	case usePhantom:
		p := phantom.DefaultParams(size)
		g := volume.NewGrid(size, size, size, p.Spacing)
		labels = phantom.GenerateLabels(g, p)
	case labelsPath != "":
		var err error
		labels, err = volume.LoadLabels(labelsPath)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -labels or -phantom is required")
	}

	mesher := mesh.FromLabels
	if useBCC {
		mesher = mesh.FromLabelsBCC
	}
	m, err := mesher(labels, mesh.Options{CellSize: cellSize})
	if err != nil {
		return err
	}
	if err := m.CheckConsistency(); err != nil {
		return fmt.Errorf("mesh consistency: %w", err)
	}

	fmt.Printf("grid: %v\n", labels.Grid)
	fmt.Printf("mesh: %d nodes, %d tetrahedra (%d equations as a FEM system)\n",
		m.NumNodes(), m.NumTets(), 3*m.NumNodes())
	q := m.Quality()
	fmt.Printf("quality: min %.3f, mean %.3f (1 = regular tetrahedron); %d degenerate\n",
		q.MinQuality, q.MeanQuality, q.Degenerate)
	fmt.Printf("element volume: min %.3f, max %.3f mm^3; total %.0f mm^3\n",
		q.MinVolume, q.MaxVolume, m.TotalVolume())

	vols := m.LabelVolumes()
	var labs []volume.Label
	for lab := range vols {
		labs = append(labs, lab)
	}
	sort.Slice(labs, func(a, b int) bool { return labs[a] < labs[b] })
	fmt.Println("per-tissue element volume:")
	for _, lab := range labs {
		fmt.Printf("  %-12s %12.0f mm^3\n", volume.LabelName(lab), vols[lab])
	}

	// Connectivity spread (the paper's assembly imbalance driver).
	adj := m.NodeAdjacency()
	minV, maxV, sum := 1<<30, 0, 0
	for _, nb := range adj {
		v := len(nb)
		if v == 0 {
			continue
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		sum += v
	}
	fmt.Printf("node connectivity: min %d, mean %.1f, max %d neighbors\n",
		minV, float64(sum)/float64(len(adj)), maxV)

	if surfaceOut != "" {
		s, err := m.ExtractSurface(volume.IsBrainTissue)
		if err != nil {
			return err
		}
		if err := writeOFF(surfaceOut, s); err != nil {
			return err
		}
		fmt.Printf("wrote brain surface (%d vertices, %d triangles) to %s\n",
			s.NumVerts(), s.NumTris(), surfaceOut)
	}
	return nil
}

// writeOFF saves a triangle mesh in the Object File Format.
func writeOFF(path string, s *mesh.TriMesh) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "OFF\n%d %d 0\n", s.NumVerts(), s.NumTris())
	for _, v := range s.Verts {
		fmt.Fprintf(w, "%g %g %g\n", v.X, v.Y, v.Z)
	}
	for _, t := range s.Tris {
		fmt.Fprintf(w, "3 %d %d %d\n", t[0], t[1], t[2])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
