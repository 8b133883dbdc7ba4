package service

import (
	"context"
	"errors"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The service keeps no count of its own: scanDone files a finished job
// under the registry's instruments and the per-job stage sinks feed the
// stage histograms; /metrics renders them and /healthz reads two back.

// scanOutcomes are the values of brainsim_scans_total's outcome label:
// every finished scan lands in exactly one.
var scanOutcomes = [...]string{"completed", "degraded", "canceled", "failed"}

// scanDone records the outcome of one finished job in exactly one
// bucket. Degraded takes priority: a deadline observed mid-degradation
// (after the surface stage) is the clinical fallback working as
// designed, and must not leak into Canceled as well. kind is the
// effective processing path (an update that fell back reports as
// JobRegister); elapsed is the worker wall-clock time of the job, fed to
// the update-vs-cold latency histograms when the scan was delivered.
func scanDone(reg *obs.Registry, kind JobKind, elapsed time.Duration, res *core.Result, err error) {
	outcome := "completed"
	switch {
	case res != nil && res.Degraded:
		outcome = "degraded"
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		outcome = "canceled"
	case err != nil:
		outcome = "failed"
	}
	reg.Counter(obs.MetricScans, obs.Label{Key: "outcome", Value: outcome}).Inc()
	if err != nil || res == nil {
		return
	}
	// Delivered (completed or degraded): the update-vs-cold latency
	// split of the scan wall-clock, one histogram per job kind.
	reg.Histogram(obs.MetricScanSeconds, obs.Label{Key: "kind", Value: string(kind)}).Observe(elapsed.Seconds())
	if outcome != "completed" {
		return
	}
	st := res.SolveStats
	reg.Histogram(obs.MetricSolverIterations).Observe(float64(st.Iterations))
	reg.Histogram(obs.MetricSolverEntryResidual).Observe(st.EntryResRel)
	reg.Counter(obs.MetricSolverRestarts).Add(float64(st.Restarts))
	reg.Counter(obs.MetricSolverStagnated).Add(float64(st.StagnatedCycles))
	if st.Diverged {
		reg.Counter(obs.MetricSolverDiverged).Inc()
	}
	reg.Counter(obs.MetricSolverSolves,
		obs.Label{Key: "converged", Value: strconv.FormatBool(st.Converged)}).Inc()
	if res.Update != nil {
		reg.Counter(obs.MetricWarmItersSaved).Add(float64(res.Update.IterationsSaved))
		hit := "hit"
		if !res.Update.PCCacheHit {
			hit = "miss"
		}
		reg.Counter(obs.MetricPCCache, obs.Label{Key: "result", Value: hit}).Inc()
	}
}
