package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// StageMetrics aggregates one pipeline stage over every scan the
// service has processed. The latency aggregates are backed by the
// fixed-bucket obs histograms exported on /metrics, so the Go snapshot
// and the Prometheus scrape always agree.
type StageMetrics struct {
	// Count is the number of completed executions of the stage.
	Count int
	// Errors counts executions that failed (including cancellations).
	Errors int
	// Total and Max summarize the stage wall-clock time.
	Total time.Duration
	Max   time.Duration
	// P50, P90 and P99 are histogram-estimated latency quantiles — the
	// continuous form of the paper's Figure 6 per-stage timings.
	P50, P90, P99 time.Duration
}

// Mean returns the average stage duration (zero when Count is zero).
func (m StageMetrics) Mean() time.Duration {
	if m.Count == 0 {
		return 0
	}
	return m.Total / time.Duration(m.Count)
}

// Metrics is an aggregate snapshot across all scans and sessions: a
// read-only view of the service's obs registry, each field computed
// from the instrument /metrics exports (named on the field), so the Go
// snapshot and the scrape cannot disagree. Fields are read one
// instrument at a time — each is exact, the set is not one atomic cut.
type Metrics struct {
	// Scans counts finished scans. Every finished scan lands in exactly
	// one of the three outcome buckets below or completed cleanly:
	// Degraded (deadline expired after the surface stage, rigid-only
	// fallback delivered — even when the deadline is also observed as an
	// error mid-degradation), Canceled (context cancellation or deadline
	// expiry before the degradation point), or Failed (any other error).
	// Failed includes Canceled for backward compatibility; Degraded and
	// Canceled never overlap. (brainsim_scans_total by outcome.)
	Scans    int
	Failed   int
	Degraded int
	Canceled int
	// Shed counts submissions rejected with ErrQueueFull. Shed
	// submissions never become scans, so they are tracked separately
	// instead of silently vanishing from the aggregates.
	// (brainsim_shed_total.)
	Shed int
	// Updates counts delivered scans that ran the incremental re-solve
	// path (a subset of Scans; the count of
	// brainsim_scan_seconds{kind="update"}); UpdateFallbacks counts
	// update submissions that ran as full registrations because the
	// session had no baseline yet (brainsim_update_fallbacks_total).
	Updates         int
	UpdateFallbacks int
	// WarmIterationsSaved totals the GMRES iterations the warm-started
	// updates saved relative to their sessions' baseline cold solves.
	WarmIterationsSaved int
	// PCCacheHits / PCCacheMisses count preconditioner-cache outcomes
	// across delivered incremental solves.
	PCCacheHits   int
	PCCacheMisses int
	// SolveNotConverged counts successfully delivered scans whose GMRES
	// solve stopped at MaxIter without reaching tolerance
	// (brainsim_solver_solves_total{converged="false"}).
	SolveNotConverged int
	// AssemblyFlops totals the per-rank FEM assembly work reported by
	// the par counters, and AssemblyImbalanceMax tracks the worst
	// max/mean rank imbalance seen — the quantity the paper's load
	// balancing discussion revolves around.
	AssemblyFlops        float64
	AssemblyImbalanceMax float64
	// Stages maps core.Stage* names to their aggregates.
	Stages map[string]StageMetrics
}

// String renders the snapshot as a compact report.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scans=%d failed=%d degraded=%d canceled=%d shed=%d notconverged=%d assemblyGflop=%.3f\n",
		m.Scans, m.Failed, m.Degraded, m.Canceled, m.Shed, m.SolveNotConverged, m.AssemblyFlops/1e9)
	if m.Updates > 0 || m.UpdateFallbacks > 0 {
		fmt.Fprintf(&b, "updates=%d fallbacks=%d warmItersSaved=%d pcCacheHit=%d pcCacheMiss=%d\n",
			m.Updates, m.UpdateFallbacks, m.WarmIterationsSaved, m.PCCacheHits, m.PCCacheMisses)
	}
	names := make([]string, 0, len(m.Stages))
	for n := range m.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sm := m.Stages[n]
		fmt.Fprintf(&b, "  %-28s n=%-3d err=%-2d p50=%8.3fs p99=%8.3fs max=%8.3fs\n",
			n, sm.Count, sm.Errors, sm.P50.Seconds(), sm.P99.Seconds(), sm.Max.Seconds())
	}
	return b.String()
}

// The service keeps no count of its own: scanDone files a finished job
// under the registry's instruments, the per-job stage sinks feed the
// stage histograms, and snapshot reads both back as the typed Metrics.

// scanDone records the outcome of one finished job in exactly one
// bucket. Degraded takes priority: a deadline observed mid-degradation
// (after the surface stage) is the clinical fallback working as
// designed, and must not leak into Canceled as well. kind is the
// effective processing path (an update that fell back reports as
// JobRegister); jobID annotates the latency histogram bucket as a
// trace_id exemplar, linking a bad bucket to a concrete /jobs/{id} and
// flight-recorder trail; elapsed is the worker wall-clock time of the
// job, fed to the update-vs-cold latency histograms when the scan was
// delivered.
func scanDone(reg *obs.Registry, kind JobKind, jobID string, elapsed time.Duration, res *core.Result, err error) {
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
	// split of the scan wall-clock, one histogram per job kind, with
	// the job id as a trace exemplar on the bucket it lands in.
	reg.Histogram(obs.MetricScanSeconds, obs.Label{Key: "kind", Value: string(kind)}).
		ObserveExemplar(elapsed.Seconds(), "trace_id", jobID)
	if outcome != "completed" {
		return
	}
	st := res.SolveStats
	reg.Histogram(obs.MetricSolverIterations).ObserveExemplar(float64(st.Iterations), "trace_id", jobID)
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

// snapshot computes the Metrics view of reg. The returned value shares
// no mutable state with the registry, so callers may hold or mutate it
// while scans keep completing. Instruments are get-or-create, so a
// family nothing has fed yet is read — and from then on exported — as
// zero, the way Prometheus clients pre-declare their series.
func snapshot(reg *obs.Registry) Metrics {
	count := func(m obs.Metric, labels ...obs.Label) int {
		return int(reg.Counter(m, labels...).Value())
	}
	outcome := func(o string) int { return count(obs.MetricScans, obs.Label{Key: "outcome", Value: o}) }
	pcCache := func(r string) int { return count(obs.MetricPCCache, obs.Label{Key: "result", Value: r}) }
	degraded, canceled, failed := outcome("degraded"), outcome("canceled"), outcome("failed")
	out := Metrics{
		Scans:    outcome("completed") + degraded + canceled + failed,
		Failed:   canceled + failed,
		Degraded: degraded,
		Canceled: canceled,
		Shed:     count(obs.MetricShed),
		Updates: int(reg.Histogram(obs.MetricScanSeconds,
			obs.Label{Key: "kind", Value: string(JobUpdate)}).Summary().Count),
		UpdateFallbacks:      count(obs.MetricUpdateFallbacks),
		WarmIterationsSaved:  count(obs.MetricWarmItersSaved),
		PCCacheHits:          pcCache("hit"),
		PCCacheMisses:        pcCache("miss"),
		SolveNotConverged:    count(obs.MetricSolverSolves, obs.Label{Key: "converged", Value: "false"}),
		AssemblyFlops:        reg.Counter(obs.MetricAssemblyFlops).Value(),
		AssemblyImbalanceMax: reg.Gauge(obs.MetricAssemblyImbalanceMax).Value(),
		Stages:               make(map[string]StageMetrics),
	}
	for _, s := range core.Stages {
		stage := obs.Label{Key: "stage", Value: s}
		h := reg.Histogram(obs.MetricStageSeconds, stage).Summary()
		if h.Count == 0 {
			continue // never ran (an update-only service skips rigid and mesh)
		}
		out.Stages[s] = StageMetrics{
			Count:  int(h.Count),
			Errors: count(obs.MetricStageErrors, stage),
			Total:  secondsToDuration(h.Sum),
			Max:    secondsToDuration(h.Max),
			P50:    secondsToDuration(h.P50),
			P90:    secondsToDuration(h.P90),
			P99:    secondsToDuration(h.P99),
		}
	}
	return out
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
