// Package repro is a from-scratch Go reproduction of "Real-Time
// Biomechanical Simulation of Volumetric Brain Deformation for Image
// Guided Neurosurgery" (Warfield, Ferrant, Gallez, Nabavi, Jolesz,
// Kikinis — SC 2000).
//
// The library implements the paper's full intraoperative registration
// pipeline and every substrate it depends on: 3D volumes and
// resampling (internal/volume), saturated Euclidean distance
// transforms (internal/edt), mutual-information rigid registration
// (internal/register), k-NN tissue classification (internal/classify),
// a multi-object tetrahedral mesh generator (internal/mesh), an active
// surface algorithm (internal/surface), linear elastic tetrahedral
// finite elements with parallel assembly (internal/fem), sparse
// matrices and GMRES/block-Jacobi solvers standing in for PETSc
// (internal/sparse, internal/solver), a goroutine rank runtime
// (internal/par), calibrated machine models of the paper's three
// parallel platforms (internal/cluster), the figure-regeneration
// harness (internal/figures), and the pipeline orchestration
// (internal/core). Synthetic neurosurgery cases with analytic
// ground-truth deformations substitute for the clinical scans
// (internal/phantom).
//
// cmd/benchfig regenerates every table and figure of the paper's
// evaluation, and the studies of the design choices beyond them, and
// checks the claims made on them. See DESIGN.md for the per-experiment
// index and EXPERIMENTS.md for paper-vs-measured results.
package repro
