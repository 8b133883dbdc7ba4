package core

// The five preop-pure stages. Each is a deterministic function of its
// input artifact and key struct alone — it has no receiver and sees no
// Config, Pipeline or run state — so cached may satisfy it from the
// artifact store under a key derived from those same two arguments.

import (
	"context"

	"repro/internal/edt"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/surface"
	"repro/internal/volume"
)

// brainSet reports whether a label belongs to the intracranial tissues
// deformed by the biomechanical model.
func brainSet(lab volume.Label) bool {
	switch lab {
	case volume.LabelBrain, volume.LabelVentricle, volume.LabelTumor,
		volume.LabelFalx, volume.LabelResection:
		return true
	}
	return false
}

type edtKey struct{ Saturation float64 }

// preopEDT computes the classifier's spatial localization channels —
// saturated distance maps of the brain, ventricle and CSF compartments —
// from the aligned preoperative segmentation alone.
func preopEDT(_ context.Context, labels *volume.Labels, k edtKey) (edtChannels, error) {
	return edtChannels{
		edt.Saturated(labels, volume.LabelBrain, k.Saturation),
		edt.Saturated(labels, volume.LabelVentricle, k.Saturation),
		edt.Saturated(labels, volume.LabelCSF, k.Saturation),
	}, nil
}

type meshKey struct {
	CellSize  int
	BCC, Snap bool
}

// preopMesh meshes the aligned preoperative anatomy and extracts its
// brain surface; under Snap the surface nodes conform to the smooth
// segmentation boundary first.
func preopMesh(_ context.Context, labels *volume.Labels, k meshKey) (meshed, error) {
	mesher := mesh.FromLabels
	if k.BCC {
		mesher = mesh.FromLabelsBCC
	}
	m, err := mesher(labels, mesh.Options{CellSize: k.CellSize, Include: brainSet})
	if err != nil {
		return meshed{}, err
	}
	surf, err := m.ExtractSurface(brainSet)
	if err != nil {
		return meshed{}, err
	}
	if k.Snap {
		// Conform the FEM geometry to the smooth preoperative brain
		// boundary, then relax the interior lattice.
		phiPre := edt.SignedOfSet(labels, brainSet, 0)
		m.SnapToLevelSet(surf.NodeID, phiPre, float64(k.CellSize))
		m.Smooth(3, 0.5)
		// Re-extract so the surface carries the snapped positions.
		if surf, err = m.ExtractSurface(brainSet); err != nil {
			return meshed{}, err
		}
	}
	return meshed{Mesh: m, Surf: surf}, nil
}

// preopRelax relaxes the marching-tetrahedra brain surface onto the
// smooth preoperative boundary, so the sub-voxel discretization
// correction does not contaminate the measured intraoperative motion.
// Updates re-evolve this relaxed surface onto each new intraoperative
// boundary, keeping the Dirichlet row set stable.
func preopRelax(ctx context.Context, in pair[*volume.Labels, meshed], opts surface.Options) (*mesh.TriMesh, error) {
	// The distance field is lightly smoothed so its level set does not
	// inherit the voxel (or thick-slice) staircase of the label map,
	// which would otherwise make the evolution oscillate.
	phiPre := edt.SignedOfSet(in.A, brainSet, 0).SmoothGaussian(1.0)
	relaxed, err := surface.EvolveContext(ctx, in.B.Surf, surface.SignedDistanceForce{Phi: phiPre}, opts)
	if err != nil {
		return nil, err
	}
	return relaxed.Final, nil
}

type assembleKey struct {
	Materials fem.Table
	Ranks     int
}

// preopAssemble assembles the FEM stiffness system on the preoperative
// mesh — by far the most expensive pure stage: the matrix is a
// deterministic function of the mesh geometry, the constitutive model
// and the rank partition alone. The intraoperative boundary conditions
// are eliminated later (the solve stage applies Dirichlet rows in place
// on the run's private System, which with a store is a freshly decoded
// copy), so the assembled pre-Dirichlet system is content-addressable.
func preopAssemble(ctx context.Context, m meshed, k assembleKey) (*fem.System, error) {
	return fem.AssembleContext(ctx, m.Mesh, k.Materials, par.Even(m.Mesh.NumNodes(), k.Ranks))
}

// preopInterp builds the voxel→element interpolation table of the
// assembled mesh on the scan grid (its key). The table depends on the
// mesh geometry — via the system, whose matrix it never reads — and the
// grid alone; applying it reproduces System.DisplacementField
// bit-exactly.
func preopInterp(_ context.Context, sys *fem.System, g volume.Grid) (*fem.InterpTable, error) {
	return sys.BuildInterpTable(g), nil
}
