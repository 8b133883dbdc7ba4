package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/edt"
	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/register"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/surface"
	"repro/internal/transform"
	"repro/internal/volume"
)

// span is one benchmark-owned interval around a call into a layer.
// Parent is the ID of the enclosing span (0 for a root); spans of one
// replay repetition share Sample.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Sample   int    `json:"sample"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// recorder keeps spans in memory; the replay is single-threaded, so a
// stack of open spans gives each new one its parent.
type recorder struct {
	workload string
	sample   int
	t0       time.Time
	spans    []span
	open     []int // indices into spans
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// do runs fn inside a span called name.
func (r *recorder) do(name string, fn func() error) error {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Name: name, Workload: r.workload,
		Sample: r.sample, StartNS: int64(time.Since(r.t0))})
	r.open = append(r.open, i)
	err := fn()
	r.spans[i].EndNS = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// run is do for a call that cannot fail.
func (r *recorder) run(name string, fn func()) {
	_ = r.do(name, func() error { fn(); return nil })
}

// selfTimesMS returns each span's duration minus the part of it its
// direct children cover (overlapping children are counted once), keyed
// by span ID.
func selfTimesMS(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.ID] = float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return self
}

// durationsMS groups span durations by name.
func durationsMS(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.ms())
	}
	return out
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// brainSet mirrors core's set of tissues the biomechanical model
// deforms; the replay-divergence gate catches it drifting.
func brainSet(lab volume.Label) bool {
	switch lab {
	case volume.LabelBrain, volume.LabelVentricle, volume.LabelTumor,
		volume.LabelFalx, volume.LabelResection:
		return true
	}
	return false
}

// replayState is what one replayed registration leaves behind for the
// replayed update and the kernel measurements: each call's output feeds
// the next call, as in the pipeline.
type replayState struct {
	cfg          core.Config
	alignedPreop *volume.Scalar
	edtChannels  []*volume.Scalar
	cl           *classify.Classifier
	relaxedSurf  *mesh.TriMesh
	mesh         *mesh.Mesh
	sys          *fem.System
	part         par.Partition
	pc           *solver.BlockJacobiPC
	opts         solver.Options
	interp       *fem.InterpTable
	u            []float64
	nodeU        []geom.Vec3
	gmres        solver.Stats
	assembleMB   float64
}

func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

func (st *replayState) classifyScan(ctx context.Context, rec *recorder, intraop *volume.Scalar) (*volume.Labels, error) {
	channels := append([]*volume.Scalar{intraop}, st.edtChannels...)
	var labels *volume.Labels
	err := rec.do("classify.knn", func() (err error) {
		if len(st.cl.Prototypes) >= 128 {
			labels, err = st.cl.ClassifyKDContext(ctx, channels)
		} else {
			labels, err = st.cl.ClassifyContext(ctx, channels)
		}
		return err
	})
	return labels, err
}

func (st *replayState) evolveOnto(ctx context.Context, rec *recorder, surf *mesh.TriMesh, labels *volume.Labels) (*surface.Result, error) {
	var phi *volume.Scalar
	rec.run("edt.signed_smooth", func() {
		phi = edt.SignedOfSet(labels, brainSet, 0).SmoothGaussian(1.0)
	})
	var res *surface.Result
	err := rec.do("surface.evolve", func() (err error) {
		res, err = surface.EvolveContext(ctx, surf, surface.SignedDistanceForce{Phi: phi}, st.cfg.Surface)
		return err
	})
	return res, err
}

func (st *replayState) resample(rec *recorder) {
	var fwd, back *volume.Field
	rec.run("fem.interp_apply", func() { fwd = st.interp.Apply(st.nodeU) })
	rec.run("volume.invert", func() { back = fwd.Invert(4) })
	rec.run("volume.warp", func() { back.WarpScalar(st.alignedPreop) })
}

// replayRegister rebuilds one full registration from the layers' public
// functions, in the order core's registration DAG calls them.
func replayRegister(ctx context.Context, rec *recorder, cfg core.Config, a *anatomy) (*replayState, error) {
	c := a.stream.Case
	st := &replayState{cfg: cfg}
	err := rec.do("replay.register", func() error {
		var alignedLabels *volume.Labels
		var rigid register.Result
		if err := rec.do("register.align", func() (err error) {
			init := register.CenterOfMassInit(c.Intraop, c.Preop, cfg.Register.Threshold)
			rigid, err = register.AlignContext(ctx, c.Intraop, c.Preop, init, cfg.Register)
			return err
		}); err != nil {
			return err
		}
		rec.run("transform.resample", func() {
			st.alignedPreop = transform.ResampleScalar(c.Preop, rigid.Transform, c.Intraop.Grid)
			alignedLabels = transform.ResampleLabels(c.PreopLabels, rigid.Transform, c.Intraop.Grid)
		})
		rec.run("edt.saturated3", func() {
			for _, lab := range []volume.Label{volume.LabelBrain, volume.LabelVentricle, volume.LabelCSF} {
				st.edtChannels = append(st.edtChannels, edt.Saturated(alignedLabels, lab, cfg.EDTSaturation))
			}
		})
		if err := rec.do("classify.sample", func() error {
			protoChannels := append([]*volume.Scalar{st.alignedPreop}, st.edtChannels...)
			protos, err := classify.SamplePrototypesContext(ctx, alignedLabels, protoChannels, cfg.PrototypesPerClass, cfg.Seed)
			st.cl = &classify.Classifier{K: cfg.KNN, Prototypes: protos, Weights: []float64{1, 8, 8, 8}, Workers: cfg.Ranks}
			return err
		}); err != nil {
			return err
		}
		intraLabels, err := st.classifyScan(ctx, rec, c.Intraop)
		if err != nil {
			return err
		}
		if err := rec.do("mesh.generate", func() (err error) {
			st.mesh, err = mesh.FromLabels(alignedLabels, mesh.Options{CellSize: cfg.MeshCellSize, Include: brainSet})
			return err
		}); err != nil {
			return err
		}
		var brainSurf *mesh.TriMesh
		if err := rec.do("mesh.extract_surface", func() (err error) {
			brainSurf, err = st.mesh.ExtractSurface(brainSet)
			return err
		}); err != nil {
			return err
		}
		relaxed, err := st.evolveOnto(ctx, rec, brainSurf, alignedLabels)
		if err != nil {
			return err
		}
		st.relaxedSurf = relaxed.Final
		surfRes, err := st.evolveOnto(ctx, rec, st.relaxedSurf, intraLabels)
		if err != nil {
			return err
		}
		before := allocMB()
		if err := rec.do("fem.assemble", func() (err error) {
			st.sys, err = fem.AssembleContext(ctx, st.mesh, cfg.Materials, par.Even(st.mesh.NumNodes(), cfg.Ranks))
			return err
		}); err != nil {
			return err
		}
		st.assembleMB = allocMB() - before
		var bc map[int32]geom.Vec3
		rec.run("surface.boundary_conditions", func() { bc = surfRes.BoundaryConditions() })
		if err := rec.do("fem.dirichlet", func() error { return st.sys.ApplyDirichlet(bc) }); err != nil {
			return err
		}
		st.part = st.sys.DOFPartition()
		st.opts = cfg.Solver
		st.opts.Partition = st.part
		if err := rec.do("solver.pc_setup", func() (err error) {
			st.pc, err = solver.NewBlockJacobiILU0(st.sys.K, st.part)
			return err
		}); err != nil {
			return err
		}
		if err := rec.do("solver.gmres", func() (err error) {
			st.u, st.gmres, err = solver.GMRESContext(ctx, st.sys.K, st.sys.F, nil, st.pc, st.opts)
			return err
		}); err != nil {
			return err
		}
		rec.run("fem.node_displacements", func() { st.nodeU = st.sys.NodeDisplacements(st.u) })
		rec.run("fem.interp_build", func() { st.interp = st.sys.BuildInterpTable(c.Intraop.Grid) })
		st.resample(rec)
		return nil
	})
	return st, err
}

// replayUpdate rebuilds one incremental update on the replayed
// baseline, in the order core's update path calls the layers.
func replayUpdate(ctx context.Context, rec *recorder, st *replayState, intraop *volume.Scalar) (solver.Stats, error) {
	var stats solver.Stats
	err := rec.do("replay.update", func() error {
		if err := rec.do("classify.refresh", func() error {
			channels := append([]*volume.Scalar{intraop}, st.edtChannels...)
			return st.cl.RefreshFeaturesRobustContext(ctx, channels, 4, 5)
		}); err != nil {
			return err
		}
		intraLabels, err := st.classifyScan(ctx, rec, intraop)
		if err != nil {
			return err
		}
		surfRes, err := st.evolveOnto(ctx, rec, st.relaxedSurf, intraLabels)
		if err != nil {
			return err
		}
		var bc map[int32]geom.Vec3
		rec.run("surface.boundary_conditions", func() { bc = surfRes.BoundaryConditions() })
		if err := rec.do("fem.patch", func() error {
			_, err := st.sys.PatchDirichlet(ctx, bc)
			return err
		}); err != nil {
			return err
		}
		if err := rec.do("solver.gmres_warm", func() (err error) {
			st.u, stats, err = solver.GMRESWarmContext(ctx, st.sys.K, st.sys.F, st.u, st.pc, st.opts)
			return err
		}); err != nil {
			return err
		}
		rec.run("fem.node_displacements", func() { st.nodeU = st.sys.NodeDisplacements(st.u) })
		st.resample(rec)
		return nil
	})
	return stats, err
}

// maxNodalDiff is the largest per-component difference between two
// nodal displacement fields; +Inf when their sizes differ.
func maxNodalDiff(a, b []geom.Vec3) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		d = math.Max(d, a[i].Sub(b[i]).MaxAbs())
	}
	return d
}

// Gates of the traced run.
const (
	maxReplayDivergenceMM  = 1e-6
	maxReplayUnattribShare = 0.02
)

// replayLayers is the second half of a traced run. It registers the
// seed's anatomy once through core.Session as the reference, then for
// at least budget (always once) replays that registration, the solver
// variants and one update call by call inside spans, and finally times
// the kernels, the artifact store and the program's own tracer. It
// returns the per-layer values and the spans.
func replayLayers(workload string, size int, seed int64, budget time.Duration, tmpDir string) (map[string]float64, []span, error) {
	ctx := context.Background()
	a, err := newAnatomy(size, seed, shiftSchedule())
	if err != nil {
		return nil, nil, err
	}
	cfg := benchConfig(runtime.NumCPU())
	sess, ref, s := registerOnce(cfg, a)
	if s.failed() {
		return nil, nil, setupFailure("reference registration", s)
	}

	rec := newRecorder(workload)
	var (
		st         *replayState
		divergence float64
		unattrib   []float64
		series     = make(map[string][]float64) // per-repetition values that are not span durations
	)
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		rec.sample = rep
		first := len(rec.spans)
		if st, err = replayRegister(ctx, rec, cfg, a); err != nil {
			return nil, nil, err
		}
		divergence = math.Max(divergence, maxNodalDiff(st.nodeU, ref.NodeDisplacements))
		root := rec.spans[first]
		outside := selfTimesMS(rec.spans[first:])[root.ID]
		if share := outside / root.ms(); share > maxReplayUnattribShare {
			return nil, nil, fmt.Errorf("replay: %.1f%% of the replayed registration is outside every layer span (limit %.0f%%)",
				100*share, 100*maxReplayUnattribShare)
		}
		unattrib = append(unattrib, outside)
		series["solver.gmres_iterations"] = append(series["solver.gmres_iterations"], float64(st.gmres.Iterations))
		series["fem.assemble_alloc_mb"] = append(series["fem.assemble_alloc_mb"], st.assembleMB)

		// The variants solve the system the replayed registration just
		// solved, before the update patches its right-hand side.
		if err := solverVariants(ctx, rec, st, series); err != nil {
			return nil, nil, err
		}
		warm, err := replayUpdate(ctx, rec, st, a.scanVolume(1))
		if err != nil {
			return nil, nil, err
		}
		series["solver.gmres_warm_iterations"] = append(series["solver.gmres_warm_iterations"], float64(warm.Iterations))
		if rep == 0 {
			// The reference session's first update sees the same scan as
			// the replayed one.
			upd, err := sess.Update(ctx, a.scanVolume(1))
			if err != nil {
				return nil, nil, fmt.Errorf("reference update: %w", err)
			}
			divergence = math.Max(divergence, maxNodalDiff(st.nodeU, upd.NodeDisplacements))
		}
	}
	if divergence > maxReplayDivergenceMM {
		return nil, nil, fmt.Errorf("replay: nodal displacements differ from core.Session by %.3g mm (limit %.0g): the replay no longer mirrors the pipeline",
			divergence, maxReplayDivergenceMM)
	}
	if err := kernels(rec, st); err != nil {
		return nil, nil, err
	}
	if err := artifactStore(rec, st, tmpDir); err != nil {
		return nil, nil, err
	}
	overhead, err := tracingOverhead(ctx, sess, a, budget/4)
	if err != nil {
		return nil, nil, err
	}

	// A span called x feeds the metric x_ms or x_us with the median of
	// its durations.
	m := make(map[string]float64)
	for name, durs := range durationsMS(rec.spans) {
		m[name+"_ms"] = median(durs)
		m[name+"_us"] = 1000 * median(durs)
	}
	for name, vals := range series {
		m[name] = median(vals)
	}
	k := st.sys.K
	m["classify.voxels"] = float64(len(a.stream.Case.Intraop.Data))
	m["mesh.nodes"] = float64(st.mesh.NumNodes())
	m["mesh.tets"] = float64(st.mesh.NumTets())
	m["fem.equations"] = float64(st.sys.NumDOF)
	m["fem.nnz"] = float64(k.NNZ())
	m["fem.assemble_flops"] = st.sys.Assembly.Snapshot().TotalFlops
	m["solver.gmres_ms_per_iter"] = m["solver.gmres_ms"] / m["solver.gmres_iterations"]
	m["solver.rank_speedup"] = m["solver.gmres_r1_ms"] / m["solver.gmres_ms"]
	m["sparse.spmv_rank_speedup"] = m["sparse.spmv_r1_us"] / m["sparse.spmv_us"]
	m["sparse.spmv_gbs_computed"] = spmvBytes(k) / (1e3 * m["sparse.spmv_us"])
	m["sparse.triad_gbs"] = triadBytes(k) / (1e3 * m["sparse.triad_us"])
	m["obs.tracing_overhead_frac"] = overhead
	m["bench.replay_divergence_mm"] = divergence
	m["bench.replay_unattributed_ms"] = median(unattrib)
	return m, rec.spans, nil
}

// solverVariants solves the replayed system again at the same
// tolerance with one rank, with float32 storage, and with CG.
func solverVariants(ctx context.Context, rec *recorder, st *replayState, series map[string][]float64) error {
	k, f := st.sys.K, st.sys.F
	one := par.Even(st.sys.NumDOF, 1)
	pc1, err := solver.NewBlockJacobiILU0(k, one)
	if err != nil {
		return err
	}
	r1 := st.opts
	r1.Partition = one
	if err := rec.do("solver.gmres_r1", func() error {
		_, _, err := solver.GMRESContext(ctx, k, f, nil, pc1, r1)
		return err
	}); err != nil {
		return err
	}
	f32 := st.opts
	f32.StoragePrecision = solver.PrecisionFloat32
	var stats solver.Stats
	if err := rec.do("solver.gmres_f32", func() (err error) {
		_, stats, err = solver.GMRESContext(ctx, k, f, nil, st.pc, f32)
		return err
	}); err != nil {
		return err
	}
	series["solver.f32_iterations"] = append(series["solver.f32_iterations"], float64(stats.Iterations))
	if err := rec.do("solver.cg", func() (err error) {
		_, stats, err = solver.CGContext(ctx, k, f, nil, st.pc, st.opts)
		return err
	}); err != nil {
		return err
	}
	series["solver.cg_iterations"] = append(series["solver.cg_iterations"], float64(stats.Iterations))
	return nil
}

// spmvBytes is the computed traffic of one float64 SpMV: value and
// column index per nonzero; row pointer, input and output per row.
func spmvBytes(k *sparse.CSR) float64 { return 12*float64(k.NNZ()) + 24*float64(k.N) }

// The triad measured beside the SpMV runs over three float64 arrays
// that together have the matrix's footprint.
func triadLen(k *sparse.CSR) int { return int(spmvBytes(k) / 24) }

func triadBytes(k *sparse.CSR) float64 { return 24 * float64(triadLen(k)) }

// kernelReps is the repetition count of every kernel span.
const kernelReps = 25

// kernels times the inner kernels of the solve on the replayed system.
func kernels(rec *recorder, st *replayState) error {
	k, n := st.sys.K, st.sys.NumDOF
	rng := rand.New(rand.NewSource(1))
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	tn := triadLen(k)
	ta, tb, tc := make([]float64, tn), make([]float64, tn), make([]float64, tn)
	tpart := par.Even(tn, st.part.P)
	return rec.do("replay.kernels", func() error {
		var k32 *sparse.CSR32
		for i := 0; i < kernelReps; i++ {
			rec.run("sparse.csr32_build", func() { k32 = sparse.NewCSR32(k) })
			rec.run("sparse.spmv", func() { k.MulVecPar(st.part, x, y) })
			rec.run("sparse.spmv_r1", func() { k.MulVec(x, y) })
			rec.run("sparse.spmv32", func() { k32.MulVecPar(st.part, x, y) })
			rec.run("solver.pc_apply", func() { st.pc.Apply(x, y) })
			rec.run("par.foreach", func() { st.part.ForEachRank(func(int) {}) })
			rec.run("sparse.triad", func() {
				tpart.ForEachRank(func(r int) {
					lo, hi := tpart.Range(r)
					for j := lo; j < hi; j++ {
						ta[j] = tb[j] + 3*tc[j]
					}
				})
			})
		}
		return nil
	})
}

// artifactStore times a miss and a hit of a memory-only store, and a
// hit served from the disk tier by a new store on the same directory,
// with a payload of the assembled system's size.
func artifactStore(rec *recorder, st *replayState, tmpDir string) error {
	payload := make([]byte, int(spmvBytes(st.sys.K)))
	rand.New(rand.NewSource(1)).Read(payload)
	dir, err := os.MkdirTemp(tmpDir, "artifact-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return rec.do("replay.artifact", func() error {
		for i := 0; i < 5; i++ {
			key := artifact.Key([]byte(fmt.Sprint("bench-", i)))
			lookup := func(span string, store *artifact.Store, wantHit bool) error {
				return rec.do(span, func() error {
					_, hit, err := store.GetOrCompute(key, func() ([]byte, error) { return payload, nil })
					if err == nil && hit != wantHit {
						err = fmt.Errorf("hit=%v, want %v", hit, wantHit)
					}
					return err
				})
			}
			memory, err := artifact.New(artifact.Options{})
			if err != nil {
				return err
			}
			if err := lookup("artifact.put_miss", memory, false); err != nil {
				return err
			}
			if err := lookup("artifact.get_hit", memory, true); err != nil {
				return err
			}
			writer, err := artifact.New(artifact.Options{Dir: dir})
			if err != nil {
				return err
			}
			if err := lookup("replay.artifact_disk_put", writer, false); err != nil {
				return err
			}
			reader, err := artifact.New(artifact.Options{Dir: dir})
			if err != nil {
				return err
			}
			if err := lookup("artifact.disk_hit", reader, true); err != nil {
				return err
			}
		}
		return nil
	})
}

// tracingOverhead is the share by which the program's own tracer slows
// a streamed update: the median of updates with an obs tracer on the
// context over the median without, minus one. The two kinds alternate
// on one session in the order off, on, on, off; at least four of each
// run, and more until d has passed or the ramp ends.
func tracingOverhead(ctx context.Context, sess *core.Session, a *anatomy, d time.Duration) (float64, error) {
	traced := obs.WithTracer(ctx, obs.NewTracer(io.Discard))
	var off, on []float64
	start := time.Now()
	for i := 0; i < 8 || (time.Since(start) < d && i+2 < len(a.stream.Steps)); i++ {
		c, into := ctx, &off
		if i%4 == 1 || i%4 == 2 {
			c, into = traced, &on
		}
		t0 := time.Now()
		if _, err := sess.Update(c, a.scanVolume(2+i)); err != nil {
			return 0, fmt.Errorf("tracing overhead update: %w", err)
		}
		*into = append(*into, ms(time.Since(t0)))
	}
	return median(on)/median(off) - 1, nil
}
