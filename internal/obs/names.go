package obs

// The brainsim telemetry vocabulary: every span name and metric the
// simulator's instrumentation emits, in one place. Pipeline stage spans
// use the core.Stage* constants (the stage vocabulary of
// internal/core); everything below a stage uses the span names here,
// which the simlint `spanend` analyzer checks literals against. A
// pipeline fact is an attribute of exactly one span (DESIGN §6.1 lists
// which). Metrics are sealed descriptor values: the registry accepts
// nothing else and only this package can mint one, so adding a metric
// means declaring it here.
const (
	// SpanPipelineRun is the root span of one intraoperative
	// registration (parents the six stage spans).
	SpanPipelineRun = "pipeline.run"
	// SpanPipelineUpdate is the root span of one incremental re-solve:
	// a streaming intraoperative update against a registered baseline,
	// running only the intraoperative stage subset.
	SpanPipelineUpdate = "pipeline.update"
	// SpanFEMPatchBC covers the Dirichlet delta patch: right-hand-side
	// updates for the boundary displacements that changed since the
	// previous solve, with the stiffness matrix kept. It alone states
	// the patch counts (dofs_changed, dofs_constrained).
	SpanFEMPatchBC = "fem.patch_bc"
	// SpanFEMAssemble covers the parallel element-stiffness assembly.
	SpanFEMAssemble = "fem.assemble"
	// SpanFEMSolve covers preconditioner setup plus the Krylov solve; it
	// parents the per-cycle SpanGMRESCycle spans and alone states the
	// solve's facts: fem's set-up ones and, published by GMRES itself,
	// the solver's statistics.
	SpanFEMSolve = "fem.solve"
	// SpanGMRESCycle is one GMRES restart cycle, with the entry/exit
	// relative residuals (and, when recorded, the residual history of
	// the cycle) attached.
	SpanGMRESCycle = "gmres.cycle"
	// SpanKNNBatch is one classification worker's voxel batch — the
	// straggler-detection granule of the k-NN sweep.
	SpanKNNBatch = "knn.batch"
	// SpanSurfaceEvolve is one active-surface evolution with its
	// convergence outcome attached.
	SpanSurfaceEvolve = "surface.evolve"
)

// SpanNames maps each vocabulary span name to a one-line description,
// for discoverability (simlint -list, dashboards, docs).
var SpanNames = map[string]string{
	SpanPipelineRun:    "root span of one intraoperative registration",
	SpanPipelineUpdate: "root span of one incremental streaming update",
	SpanFEMAssemble:    "parallel element-stiffness assembly",
	SpanFEMSolve:       "preconditioner setup + Krylov solve",
	SpanFEMPatchBC:     "Dirichlet delta patch for an incremental re-solve",
	SpanGMRESCycle:     "one GMRES restart cycle",
	SpanKNNBatch:       "one k-NN classification worker batch",
	SpanSurfaceEvolve:  "one active-surface evolution",
}

// KnownSpanName reports whether name belongs to the span vocabulary.
func KnownSpanName(name string) bool {
	_, ok := SpanNames[name]
	return ok
}

// Metric describes one metric family: its name, help text, kind and
// (for histograms) bucket bounds, each stated once in the declarations
// below. Registry.Counter/Gauge/Histogram take a Metric, never a
// string, and the fields are unexported, so a name that is not
// declared in this file cannot reach a registry.
type Metric struct {
	name, help, kind string
	buckets          []float64
}

// String returns the family name as it appears on /metrics.
func (m Metric) String() string { return m.name }

func counter(name, help string) Metric { return Metric{name: name, help: help, kind: "counter"} }
func gauge(name, help string) Metric   { return Metric{name: name, help: help, kind: "gauge"} }
func histogram(name, help string, buckets []float64) Metric {
	return Metric{name: name, help: help, kind: "histogram", buckets: buckets}
}

// The service layer, cmd/brainsim and the runtime collector all publish
// under these descriptors, so dashboards built against one surface work
// against the others.
var (
	// MetricStageSeconds is labeled {stage} with the core.Stage* names;
	// MetricStageErrors includes context cancellations.
	MetricStageSeconds = histogram("brainsim_stage_seconds",
		"Pipeline stage wall-clock time in seconds.", DefaultLatencyBuckets)
	MetricStageErrors = counter("brainsim_stage_errors_total",
		"Pipeline stage executions that failed (including cancellations).")
	MetricAssemblyFlops = counter("brainsim_assembly_flops_total",
		"Total FEM assembly floating-point work across ranks.")
	// MetricAssemblyImbalanceMax is the quantity the paper's
	// load-balancing discussion revolves around (1.0 = balanced).
	MetricAssemblyImbalanceMax = gauge("brainsim_assembly_imbalance_max",
		"Worst max/mean per-rank FEM assembly work ratio observed.")

	MetricSubmissions = counter("brainsim_submissions_total",
		"Scan submissions accepted into the queue.")
	MetricShed = counter("brainsim_shed_total",
		"Scan submissions rejected because the queue was full.")
	// MetricScans is labeled {outcome="completed"|"degraded"|"canceled"|"failed"}.
	MetricScans = counter("brainsim_scans_total", "Finished scans by outcome.")
	// MetricScanSeconds is labeled {kind="register"|"update"}.
	MetricScanSeconds = histogram("brainsim_scan_seconds",
		"Worker wall-clock time per delivered scan by processing path.", DefaultLatencyBuckets)
	MetricQueueDepth = gauge("brainsim_queue_depth",
		"Accepted scans waiting for a worker.")
	MetricQueueCapacity = gauge("brainsim_queue_capacity",
		"Configured scan queue bound.")
	MetricWorkersAlive = gauge("brainsim_workers_alive",
		"Worker-pool goroutines currently running.")
	MetricJobsEvicted = counter("brainsim_jobs_evicted_total",
		"Finished jobs evicted from the bounded admin retention window.")

	MetricUpdateFallbacks = counter("brainsim_update_fallbacks_total",
		"Update submissions that ran as full registrations (no baseline).")
	MetricWarmItersSaved = counter("brainsim_warmstart_iterations_saved_total",
		"GMRES iterations saved by warm-started incremental updates.")
	// MetricPCCache is labeled {result="hit"|"miss"}.
	MetricPCCache = counter("brainsim_pc_cache_total",
		"Preconditioner cache outcomes of incremental solves.")

	// MetricSolverIterations is the "why did this session take 40
	// iterations" distribution, from warm-started few-iteration updates
	// up to a MaxIter-bound cold solve; its _sum is the iteration total.
	MetricSolverIterations = histogram("brainsim_solver_iterations",
		"GMRES iterations per delivered solve.",
		[]float64{1, 2, 5, 10, 20, 30, 50, 75, 100, 150, 200, 300, 500, 1000})
	// MetricSolverEntryResidual: 1.0 is a cold start, anything well
	// below it is a warm start paying off.
	MetricSolverEntryResidual = histogram("brainsim_solver_entry_residual",
		"Relative preconditioned residual of the initial iterate per solve.",
		[]float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1})
	// MetricSolverSolves is labeled {converged="true"|"false"}; false
	// counts delivered scans whose solve hit MaxIter short of tolerance.
	MetricSolverSolves = counter("brainsim_solver_solves_total",
		"Completed biomechanical solves by convergence.")
	MetricSolverRestarts = counter("brainsim_solver_restarts_total",
		"GMRES restart cycles beyond the first across delivered solves.")
	// MetricSolverStagnated is the stagnation-detection signal.
	MetricSolverStagnated = counter("brainsim_solver_stagnated_cycles_total",
		"GMRES restart cycles that reduced the residual by less than 1%.")
	MetricSolverDiverged = counter("brainsim_solver_diverged_total",
		"Delivered solves in which a restart cycle increased the residual.")

	// MetricFlightDumps is labeled
	// {trigger="degraded"|"fallback"|"shed"|"nonconverged"|"failed"}.
	MetricFlightDumps = counter("brainsim_flightrecorder_dumps_total",
		"Automatic flight-recorder dumps by trigger.")

	MetricRuntimeHeapBytes = gauge("brainsim_runtime_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).")
	MetricRuntimeGoroutines = gauge("brainsim_runtime_goroutines",
		"Live goroutine count.")
	// MetricRuntimeGCPauseSeconds spans tens of microseconds in steady
	// state up to tens of milliseconds when the heap is churning
	// through a full re-register.
	MetricRuntimeGCPauseSeconds = histogram("brainsim_runtime_gc_pause_seconds",
		"Stop-the-world GC pause durations in seconds.", []float64{
			25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
			1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
		})
	MetricRuntimeGCCycles = counter("brainsim_runtime_gc_cycles_total",
		"Completed GC cycles.")
)
