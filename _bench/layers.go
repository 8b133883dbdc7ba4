package main

import (
	"repro/internal/artifact"
	"repro/internal/core"
)

// stageMetric names the per-layer metric of each pipeline stage.
var stageMetric = map[string]string{
	core.StageRigid:    "core.stage_rigid_ms",
	core.StageClassify: "core.stage_classify_ms",
	core.StageMesh:     "core.stage_mesh_ms",
	core.StageSurface:  "core.stage_surface_ms",
	core.StageSolve:    "core.stage_biomech_ms",
	core.StageResample: "core.stage_resample_ms",
}

// medianOr0 is the median, or 0 when there is nothing to take it of: a
// workload without updates has an update latency of 0.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// layersFromScans computes the per-layer metrics that come from values
// the layers return on every scan of the workload itself: stage
// timings, solver statistics, queue wait, store counters and the
// runtime's allocation counters across the timed windows. A workload
// without a store reports zero store counters. A stage that a
// scan does not run (meshing in an update) counts as 0 ms for it.
func layersFromScans(v map[string]float64, scans []scan, store artifact.Stats, alloc allocation) {
	stages := make(map[string][]float64)
	var unstaged, iters, queue, registers, updates []float64
	var fallbacks, pcHits, itersSaved, shed, over10s float64
	for _, s := range scans {
		if s.Shed {
			shed++
		}
		if s.FellBack {
			fallbacks++
		}
		if s.failed() {
			continue
		}
		ran, staged := make(map[string]float64), 0.0
		for _, st := range s.Stages {
			ran[st.Name] += ms(st.Elapsed)
			staged += ms(st.Elapsed)
		}
		for stage, name := range stageMetric {
			stages[name] = append(stages[name], ran[stage])
		}
		unstaged = append(unstaged, s.MS-s.QueueWaitMS-staged)
		iters = append(iters, float64(s.Iterations))
		queue = append(queue, s.QueueWaitMS)
		if s.Update {
			updates = append(updates, s.MS)
		} else {
			registers = append(registers, s.MS)
		}
		if s.PCCacheHit {
			pcHits++
		}
		itersSaved += float64(s.ItersSaved)
		if s.MS > 10_000 {
			over10s++
		}
	}
	for name, vals := range stages {
		v[name] = medianOr0(vals)
	}
	v["core.unstaged_ms"] = medianOr0(unstaged)
	v["core.solver_iterations"] = medianOr0(iters)
	v["core.update_fallbacks"] = fallbacks
	v["core.pc_cache_hits"] = pcHits
	v["core.warm_iters_saved"] = itersSaved

	v["service.queue_wait_ms_p50"] = medianOr0(queue)
	v["service.overhead_ms_p50"] = medianOr0(unstaged)
	v["service.register_ms_p50"] = medianOr0(registers)
	v["service.update_ms_p50"] = medianOr0(updates)
	v["service.shed"] = shed
	v["service.over_10s"] = over10s

	v["artifact.hits"], v["artifact.misses"] = float64(store.Hits), float64(store.Misses)
	v["artifact.hit_ratio"] = 0
	if lookups := store.Hits + store.Misses; lookups > 0 {
		v["artifact.hit_ratio"] = float64(store.Hits) / float64(lookups)
	}
	v["artifact.bytes"] = float64(store.Bytes)

	n := float64(len(scans))
	v["runtime.alloc_mb_per_scan"] = float64(alloc.bytes) / (1 << 20) / n
	v["runtime.gc_cycles_per_scan"] = float64(alloc.gcCycles) / n
	v["runtime.gc_pause_ms_per_scan"] = float64(alloc.gcPauseNS) / 1e6 / n
}
