// Package surface implements the paper's active surface algorithm
// (Ferrant, Cuisenaire & Macq, SPIE Medical Imaging 1999): an elastic
// membrane model of the brain surface is iteratively deformed by forces
// derived from the target volumetric data until it matches the brain
// surface in the second scan. The resulting per-vertex displacements
// establish the surface correspondences that become Dirichlet boundary
// conditions of the volumetric biomechanical model.
package surface

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/volume"
)

// ForceField produces the external (data-derived) force acting on a
// surface point with the given outward normal. At is called
// concurrently, from one goroutine per core, so it must not write
// shared state.
type ForceField interface {
	At(p, normal geom.Vec3) geom.Vec3
}

// SignedDistanceForce drives the surface toward the zero level set of a
// signed distance volume (negative inside the target object). The force
// is -phi(p) * grad(phi)/|grad(phi)|: straight down the distance field
// toward the target boundary, vanishing exactly on it — the "decreasing
// function of the data gradients ... minimized at the edges of objects"
// of the paper, realized on a distance field of the intraoperative
// segmentation. Walking the field gradient rather than the surface
// normal keeps the evolution stable even where the discrete surface
// folds momentarily (a flipped normal would otherwise turn the
// attraction into an unbounded repulsion).
type SignedDistanceForce struct {
	Phi *volume.Scalar
	// Gain scales the force (per mm of distance).
	Gain float64
}

// At implements ForceField.
func (f SignedDistanceForce) At(p, normal geom.Vec3) geom.Vec3 {
	gain := f.Gain
	if gain == 0 {
		gain = 1
	}
	phi := f.Phi.SampleWorld(p)
	dir := f.Phi.GradientWorld(p).Normalized()
	if dir.NormSq() == 0 {
		// Flat spot in the distance field (e.g. deep inside): fall back
		// to the surface normal.
		dir = normal
	}
	return dir.Scale(-gain * phi)
}

// EdgeForce is the intensity-based variant: a balloon force along the
// normal modulated by an edge-stopping function g = 1/(1 + |grad I|^2 /
// k^2), optionally gated by prior knowledge of the expected gray level
// at the boundary (the paper's robustness refinement). The surface
// inflates (or deflates, negative Pressure) until it hits strong edges
// whose intensity matches the prior.
type EdgeForce struct {
	Image *volume.Scalar
	// Pressure is the balloon force magnitude and sign.
	Pressure float64
	// EdgeScale is k in the edge-stopping function.
	EdgeScale float64
	// PriorLevel and PriorWindow describe the expected boundary gray
	// level; a window <= 0 disables the prior.
	PriorLevel, PriorWindow float64
}

// At implements ForceField.
func (f EdgeForce) At(p, normal geom.Vec3) geom.Vec3 {
	grad := f.Image.GradientWorld(p)
	k := f.EdgeScale
	if k <= 0 {
		k = 1
	}
	g := 1.0 / (1.0 + grad.NormSq()/(k*k))
	if f.PriorWindow > 0 {
		// Sharpen stopping where the local intensity matches the
		// expected boundary level.
		d := (f.Image.SampleWorld(p) - f.PriorLevel) / f.PriorWindow
		g *= 1 - math.Exp(-d*d)
	}
	return normal.Scale(f.Pressure * g)
}

// Options controls the evolution.
type Options struct {
	// Step is the integration step (fraction of the force applied per
	// iteration).
	Step float64
	// Smoothing is the elastic membrane (Laplacian) weight.
	Smoothing float64
	// MaxIter bounds the number of iterations.
	MaxIter int
	// Tol stops the evolution when the mean per-vertex update falls
	// below this value (mm).
	Tol float64
	// MaxStep caps the per-vertex displacement per iteration (mm),
	// keeping the evolution stable on steep force fields.
	MaxStep float64
}

// DefaultOptions returns stable defaults for millimetre-scale volumes.
func DefaultOptions() Options {
	return Options{
		Step:      0.4,
		Smoothing: 0.3,
		MaxIter:   200,
		Tol:       0.005,
		MaxStep:   1.5,
	}
}

// Result reports the converged surface and its displacement field.
type Result struct {
	// Final is the deformed surface (same topology as the input).
	Final *mesh.TriMesh
	// Displacements maps each vertex to (final - initial) position.
	Displacements []geom.Vec3
	Iterations    int
	Converged     bool
	// MeanDisp and MaxDisp summarize the recovered surface motion —
	// the quantities color-coded in the paper's Figure 5.
	MeanDisp, MaxDisp float64
}

// EvolveContext iteratively deforms surface s under the given force
// field. The input surface is not modified. The context is checked once
// per iteration; a cancelled or deadline-expired context aborts the
// evolution and returns ctx.Err().
func EvolveContext(ctx context.Context, s *mesh.TriMesh, force ForceField, opts Options) (*Result, error) {
	if s == nil || s.NumVerts() == 0 {
		return nil, fmt.Errorf("surface: empty surface")
	}
	if force == nil {
		return nil, fmt.Errorf("surface: nil force field")
	}
	if opts.Step <= 0 {
		opts.Step = 0.4
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	if opts.MaxStep <= 0 {
		opts.MaxStep = 1.5
	}
	// Each evolution (the pipeline runs two per scan: discretization
	// relaxation, then the intraoperative deformation) is one span with
	// the convergence outcome attached.
	_, span := obs.StartSpan(ctx, obs.SpanSurfaceEvolve)
	var everr error
	defer func() { span.End(everr) }()
	span.SetAttr("vertices", s.NumVerts())
	cur := s.Clone()
	initial := append([]geom.Vec3(nil), s.Verts...)
	neighbors := cur.VertexNeighbors()
	updates := make([]geom.Vec3, len(cur.Verts))
	// Per-vertex oscillation damping: a vertex whose update reverses
	// direction (a limit cycle across a staircase kink of the distance
	// field) has its effective step shrunk until it settles.
	prev := make([]geom.Vec3, len(cur.Verts))
	damp := make([]float64, len(cur.Verts))
	for i := range damp {
		damp[i] = 1
	}
	norms := make([]float64, len(cur.Verts))
	pt := par.Slabs(len(cur.Verts))

	res := &Result{}
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			span.SetAttr("iterations", res.Iterations)
			everr = err
			return nil, err
		}
		res.Iterations = iter + 1
		normals := cur.VertexNormals()
		// Each vertex's update reads the positions of the iteration
		// before, so the vertices are split into ranges, one per core;
		// the mean is then summed serially in vertex order.
		pt.ForEachRank(func(r int) {
			lo, hi := pt.Range(r)
			for v := lo; v < hi; v++ {
				p := cur.Verts[v]
				// External data force.
				f := force.At(p, normals[v])
				// Internal elastic membrane force: pull toward the neighbor
				// centroid, projected onto the vertex normal (mean-curvature
				// flow). The unprojected Laplacian would also slide vertices
				// tangentially along the surface — motion that is not tissue
				// displacement and would contaminate the boundary conditions
				// handed to the biomechanical model.
				if opts.Smoothing > 0 && len(neighbors[v]) > 0 {
					var c geom.Vec3
					for _, nb := range neighbors[v] {
						c = c.Add(cur.Verts[nb])
					}
					c = c.Scale(1 / float64(len(neighbors[v])))
					lap := c.Sub(p)
					n := normals[v]
					lapN := n.Scale(lap.Dot(n))
					f = f.Add(lapN.Scale(opts.Smoothing / opts.Step))
				}
				d := f.Scale(opts.Step * damp[v])
				if n := d.Norm(); n > opts.MaxStep {
					d = d.Scale(opts.MaxStep / n)
				}
				if d.Dot(prev[v]) < 0 {
					damp[v] *= 0.7
				} else if damp[v] < 1 {
					damp[v] = minF(1, damp[v]*1.05)
				}
				prev[v] = d
				updates[v] = d
				norms[v] = d.Norm()
			}
		})
		meanUpdate := 0.0
		for v := range cur.Verts {
			cur.Verts[v] = cur.Verts[v].Add(updates[v])
			meanUpdate += norms[v]
		}
		meanUpdate /= float64(len(cur.Verts))
		if opts.Tol > 0 && meanUpdate < opts.Tol {
			res.Converged = true
			break
		}
	}
	res.Final = cur
	res.Displacements = make([]geom.Vec3, len(cur.Verts))
	sum := 0.0
	for v := range cur.Verts {
		d := cur.Verts[v].Sub(initial[v])
		res.Displacements[v] = d
		n := d.Norm()
		sum += n
		if n > res.MaxDisp {
			res.MaxDisp = n
		}
	}
	res.MeanDisp = sum / float64(len(cur.Verts))
	span.SetAttr("iterations", res.Iterations)
	span.SetAttr("converged", res.Converged)
	span.SetAttr("mean_disp_mm", res.MeanDisp)
	span.SetAttr("max_disp_mm", res.MaxDisp)
	return res, nil
}

// BoundaryConditions converts the surface displacement field into the
// per-mesh-node Dirichlet conditions of the volumetric FEM: node id ->
// displacement vector.
func (r *Result) BoundaryConditions() map[int32]geom.Vec3 {
	bc := make(map[int32]geom.Vec3, len(r.Displacements))
	for v, d := range r.Displacements {
		bc[r.Final.NodeID[v]] = d
	}
	return bc
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
