// Command brainsim runs the full intraoperative registration pipeline.
//
// With no volume arguments it generates a synthetic neurosurgery case
// (preoperative scan + segmentation, intraoperative scan after tumor
// resection and brain shift) and registers it, reporting the per-stage
// timeline and match quality. Volumes can also be supplied from disk in
// the MVOL container format (see package volume):
//
//	brainsim -preop pre.mvol -labels seg.mvol -intraop intra.mvol
//
// Outputs (optional): the dense deformation field, the warped
// preoperative scan, and the intraoperative tissue classification.
//
// Observability: -trace writes a JSONL span trace of the run (stages,
// FEM assembly/solve, GMRES restart cycles, k-NN batches, surface
// iterations); -admin serves /metrics (Prometheus) and /debug/pprof/
// for the duration of the run. Progress goes to stderr as structured
// slog records (-log text|json, -v for debug), each stamped with the
// active span and trace ID; the result report itself stays plain text
// on stdout so it can be piped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/obs"
	"repro/internal/phantom"
	"repro/internal/segment"
	"repro/internal/volume"
)

// cliOptions carries the parsed command line.
type cliOptions struct {
	preopPath, labelsPath, intraopPath string
	size                               int
	shift                              float64
	ranks, cellSize                    int
	hetero, autoseg, useBCC            bool
	fieldOut, warpedOut, labelsOut     string
	saveCase                           string
	seed                               int64
	tracePath                          string
	adminAddr                          string
	recordHistory                      bool
	logFormat                          string
	verbose                            bool
}

// newLogger builds the run's structured logger: slog to stderr in the
// chosen format, wrapped in the obs context handler so every record is
// stamped with the active span and trace ID (the result report itself
// stays plain text on stdout). Progress lines are Info; -v lowers the
// threshold to Debug.
func newLogger(o cliOptions) (*slog.Logger, error) {
	level := slog.LevelInfo
	if o.verbose {
		level = slog.LevelDebug
	}
	ho := &slog.HandlerOptions{Level: level}
	var inner slog.Handler
	switch o.logFormat {
	case "text":
		inner = slog.NewTextHandler(os.Stderr, ho)
	case "json":
		inner = slog.NewJSONHandler(os.Stderr, ho)
	default:
		return nil, fmt.Errorf("unknown -log format %q (want text or json)", o.logFormat)
	}
	return obs.NewLogger(inner), nil
}

func main() {
	var o cliOptions
	flag.StringVar(&o.preopPath, "preop", "", "preoperative scan (.mvol); empty = synthetic phantom")
	flag.StringVar(&o.labelsPath, "labels", "", "preoperative segmentation (.mvol)")
	flag.StringVar(&o.intraopPath, "intraop", "", "intraoperative scan (.mvol)")
	flag.IntVar(&o.size, "size", 64, "phantom grid size when generating a synthetic case")
	flag.Float64Var(&o.shift, "shift", 6, "phantom brain-shift magnitude (mm)")
	flag.IntVar(&o.ranks, "ranks", 4, "parallel ranks for assembly/solve")
	flag.IntVar(&o.cellSize, "cell", 2, "mesh cell size (voxels)")
	flag.BoolVar(&o.hetero, "hetero", false, "use the heterogeneous falx/ventricle material model")
	flag.BoolVar(&o.autoseg, "autoseg", false, "segment the preoperative scan automatically when no -labels given")
	flag.BoolVar(&o.useBCC, "bcc", false, "use the body-centered-cubic mesher")
	flag.StringVar(&o.fieldOut, "field-out", "", "write the volumetric deformation field (.mvol)")
	flag.StringVar(&o.warpedOut, "warped-out", "", "write the warped preoperative scan (.mvol)")
	flag.StringVar(&o.labelsOut, "labels-out", "", "write the intraoperative classification (.mvol); this registration labels every voxel, while a streamed update re-labels only within three voxels of the last good scan's brain boundary and keeps that scan's labels elsewhere")
	flag.StringVar(&o.saveCase, "save-case", "", "directory to write the generated synthetic case volumes")
	flag.Int64Var(&o.seed, "seed", 1, "phantom random seed")
	flag.StringVar(&o.tracePath, "trace", "", "write a JSONL span trace of the run")
	flag.StringVar(&o.adminAddr, "admin", "", "serve /metrics and /debug/pprof/ on this address during the run (e.g. 127.0.0.1:8077)")
	flag.BoolVar(&o.recordHistory, "record-history", false, "record the per-iteration GMRES residual history (larger traces)")
	flag.StringVar(&o.logFormat, "log", "text", "structured log format on stderr: text or json")
	flag.BoolVar(&o.verbose, "v", false, "log at debug level")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "brainsim:", err)
		os.Exit(1)
	}
}

func run(o cliOptions) error {
	log, err := newLogger(o)
	if err != nil {
		return err
	}

	var preop, intraop *volume.Scalar
	var labels *volume.Labels
	var truth *phantom.Case

	if o.preopPath == "" {
		log.Info("generating synthetic neurosurgery case",
			"size", o.size, "shift_mm", o.shift, "seed", o.seed)
		p := phantom.DefaultParams(o.size)
		p.ShiftMagnitude = o.shift
		p.Seed = o.seed
		truth = phantom.Generate(p)
		preop, labels, intraop = truth.Preop, truth.PreopLabels, truth.Intraop
		if o.saveCase != "" {
			if err := os.MkdirAll(o.saveCase, 0o755); err != nil {
				return err
			}
			for name, save := range map[string]func(string) error{
				"preop.mvol":   func(p string) error { return volume.SaveScalar(p, preop) },
				"labels.mvol":  func(p string) error { return volume.SaveLabels(p, labels) },
				"intraop.mvol": func(p string) error { return volume.SaveScalar(p, intraop) },
			} {
				if err := save(filepath.Join(o.saveCase, name)); err != nil {
					return err
				}
			}
			log.Info("wrote synthetic case volumes", "dir", o.saveCase)
		}
	} else {
		if o.intraopPath == "" {
			return fmt.Errorf("-intraop is required with -preop")
		}
		if o.labelsPath == "" && !o.autoseg {
			return fmt.Errorf("-labels is required with -preop (or pass -autoseg)")
		}
		var err error
		if preop, err = volume.LoadScalar(o.preopPath); err != nil {
			return fmt.Errorf("loading preop: %w", err)
		}
		if o.labelsPath != "" {
			if labels, err = volume.LoadLabels(o.labelsPath); err != nil {
				return fmt.Errorf("loading labels: %w", err)
			}
		} else {
			log.Info("segmenting preoperative scan automatically")
			if labels, err = segment.Head(preop, segment.DefaultOptions()); err != nil {
				return fmt.Errorf("automatic segmentation: %w", err)
			}
		}
		if intraop, err = volume.LoadScalar(o.intraopPath); err != nil {
			return fmt.Errorf("loading intraop: %w", err)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Ranks = o.ranks
	cfg.MeshCellSize = o.cellSize
	cfg.UseBCCMesh = o.useBCC
	cfg.SkipRigid = truth != nil // phantom pairs share the scanner frame
	cfg.Solver.RecordHistory = o.recordHistory
	if o.hetero {
		cfg.Materials = fem.HeterogeneousBrain()
	}

	reg := obs.NewRegistry()
	ctx := obs.WithSink(context.Background(), obs.NewStageSink(reg))

	if o.adminAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		obs.RegisterPprof(mux)
		srv := &http.Server{Addr: o.adminAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("admin server failed", "err", err)
			}
		}()
		defer srv.Close()
		log.Info("admin surface up", "addr", o.adminAddr,
			"metrics", "http://"+o.adminAddr+"/metrics", "pprof", "http://"+o.adminAddr+"/debug/pprof/")
	}

	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		defer f.Close()
		tracer := obs.NewTracer(f)
		ctx = obs.WithTracer(ctx, tracer)
		defer func() {
			if err := tracer.Err(); err != nil {
				log.Error("span trace write failed", "err", err)
			} else {
				log.Info("wrote span trace", "path", o.tracePath)
			}
		}()
	}

	log.InfoContext(ctx, "running pipeline",
		"ranks", o.ranks, "cell_size", o.cellSize,
		"materials", map[bool]string{false: "homogeneous", true: "heterogeneous"}[o.hetero])
	sess, err := core.NewSession(cfg, preop, labels)
	if err != nil {
		return err
	}
	res, err := sess.Register(ctx, intraop)
	if err != nil {
		return err
	}

	fmt.Println()
	fmt.Print(res.Timeline())
	fmt.Println()
	fmt.Printf("mesh: %d nodes, %d elements (%d equations)\n",
		res.Mesh.NumNodes(), res.Mesh.NumTets(), 3*res.Mesh.NumNodes())
	fmt.Printf("FEM solve: %s\n", res.SolveStats)
	fmt.Printf("surface displacement: mean %.2f mm, max %.2f mm\n",
		res.Surface.MeanDisp, res.Surface.MaxDisp)
	fmt.Printf("match quality at brain boundary: rigid-only %.3f -> biomechanical %.3f (mean |diff|)\n",
		res.RigidMeanAbsDiff, res.MatchMeanAbsDiff)
	if truth != nil {
		if rms, rms0, err := truth.TruthRMS(res.Backward); err == nil {
			fmt.Printf("deformation field RMS error vs ground truth: %.3f mm (baseline %.3f mm)\n", rms, rms0)
		}
	}

	if o.fieldOut != "" {
		if err := volume.SaveField(o.fieldOut, res.Backward); err != nil {
			return err
		}
		log.Info("wrote deformation field", "path", o.fieldOut)
	}
	if o.warpedOut != "" {
		if err := volume.SaveScalar(o.warpedOut, res.Warped); err != nil {
			return err
		}
		log.Info("wrote warped preoperative scan", "path", o.warpedOut)
	}
	if o.labelsOut != "" {
		if err := volume.SaveLabels(o.labelsOut, res.IntraopLabels); err != nil {
			return err
		}
		log.Info("wrote intraoperative classification", "path", o.labelsOut)
	}
	return nil
}
