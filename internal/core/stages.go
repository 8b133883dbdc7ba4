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

type edtKey struct{ Saturation float64 }

// preopEDT computes the classifier's spatial localization channels —
// saturated distance maps of the brain, ventricle and CSF compartments —
// from the aligned preoperative segmentation alone, the three side by
// side.
func preopEDT(_ context.Context, labels *volume.Labels, k edtKey) (edtChannels, error) {
	var ch edtChannels
	classes := [len(ch)]volume.Label{volume.LabelBrain, volume.LabelVentricle, volume.LabelCSF}
	par.Even(len(ch), len(ch)).ForEachRank(func(i int) {
		ch[i] = edt.Saturated(labels, classes[i], k.Saturation)
	})
	return ch, nil
}

type meshKey struct {
	CellSize int
	BCC      bool
}

// preopMesh meshes the aligned preoperative anatomy and extracts its
// brain surface.
func preopMesh(_ context.Context, labels *volume.Labels, k meshKey) (meshed, error) {
	mesher := mesh.FromLabels
	if k.BCC {
		mesher = mesh.FromLabelsBCC
	}
	m, err := mesher(labels, mesh.Options{CellSize: k.CellSize, Include: volume.IsBrainTissue})
	if err != nil {
		return meshed{}, err
	}
	surf, err := m.ExtractSurface(volume.IsBrainTissue)
	if err != nil {
		return meshed{}, err
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
	phiPre := edt.SignedOfSet(in.A, volume.IsBrainTissue, 0).SmoothGaussian(1.0)
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

// preopAssemble assembles the FEM stiffness matrix on the preoperative
// mesh and eliminates the brain-surface nodes — by far the most
// expensive pure stage. The constrained set is the mesh's own surface
// (every scan prescribes displacements on exactly these nodes; only the
// values come from a scan), so the eliminated matrix, the coupling
// block and, hanging off the operator, the preconditioner factors are
// functions of the mesh geometry, the constitutive model and the rank
// partition alone: preoperative work, content-addressable, and shared
// read-only by every session that forks a System off it.
func preopAssemble(ctx context.Context, m meshed, k assembleKey) (*fem.Operator, error) {
	sys, err := fem.AssembleContext(ctx, m.Mesh, k.Materials, par.Even(m.Mesh.NumNodes(), k.Ranks))
	if err != nil {
		return nil, err
	}
	return sys.Eliminate(m.Surf.NodeID)
}

// preopInterp builds the voxel→element interpolation table of the
// assembled mesh on the scan grid (its key). The table depends on the
// mesh geometry and the grid alone — the operator is in the input so
// that the table stays downstream of preop-assemble in the key chain;
// applying it reproduces System.DisplacementField bit-exactly.
func preopInterp(_ context.Context, in pair[meshed, *fem.Operator], g volume.Grid) (*fem.InterpTable, error) {
	return fem.BuildInterpTable(in.A.Mesh, g), nil
}
