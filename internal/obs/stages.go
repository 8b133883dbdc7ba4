package obs

import (
	"sync"
	"time"
)

// Attribute keys the pipeline sets on its solve-stage span and the
// StageSink reads back: the FEM assembly work behind the solved system.
// They travel with the cached operator, so hit and miss runs agree.
const (
	AttrAssemblyFlops     = "assembly_flops"
	AttrAssemblyImbalance = "assembly_imbalance"
)

// StageEvent is one pipeline stage of a run as the StageSink saw it —
// one bar of the paper's Figure 6 timeline, live.
type StageEvent struct {
	// Stage is the core.Stage* name.
	Stage string
	// Start is when the stage began.
	Start time.Time
	// Elapsed is the stage duration; zero while the stage is running.
	Elapsed time.Duration
	// Done reports whether the stage has finished.
	Done bool
	// Err holds the stage failure, if any.
	Err error
	// Flops and Imbalance are the FEM assembly work counters of a
	// finished stage that carried them (the solve stage); zero otherwise.
	Flops, Imbalance float64
}

// StageSink is the one consumer of stage spans (see Stage). It keeps
// the live stage timeline of the run it is attached to and feeds the
// per-stage metrics of reg: stage wall-clock times into the per-stage
// latency histograms (errored executions included — an aborted solve
// still consumed its wall-clock), stage failures into the error
// counters, and the assembly work into the flop/imbalance metrics. The
// service attaches one per job, sharing its registry; cmd/brainsim
// attaches one for its run. Spans that are not stages pass through
// untouched. Safe for concurrent use.
type StageSink struct {
	reg *Registry

	mu     sync.Mutex
	events []StageEvent
}

// NewStageSink returns a sink publishing into reg.
func NewStageSink(reg *Registry) *StageSink { return &StageSink{reg: reg} }

// Events returns a copy of the timeline recorded so far, in start order.
func (s *StageSink) Events() []StageEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]StageEvent(nil), s.events...)
}

// SpanStarted implements Sink: a stage opens as a running event.
func (s *StageSink) SpanStarted(i SpanInfo) {
	if !i.Stage {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, StageEvent{Stage: i.Name, Start: i.Start})
	s.mu.Unlock()
}

// SpanEnded implements Sink: the stage's running event is completed
// and the registry is fed, both from the one finished span. Stages of
// one run are sequential, so the most recent open event of that name is
// the one that ended.
func (s *StageSink) SpanEnded(f FinishedSpan) {
	if !f.Stage {
		return
	}
	flops, assembled := f.Attrs[AttrAssemblyFlops].(float64)
	imbalance, _ := f.Attrs[AttrAssemblyImbalance].(float64)
	s.mu.Lock()
	for i := len(s.events) - 1; i >= 0; i-- {
		if e := &s.events[i]; e.Stage == f.Name && !e.Done {
			e.Elapsed, e.Done, e.Err = f.Dur, true, f.Err
			e.Flops, e.Imbalance = flops, imbalance
			break
		}
	}
	s.mu.Unlock()
	// Instruments lock individually; they are fed after the sink's own
	// lock is released, so the two never nest.
	stage := Label{"stage", f.Name}
	s.reg.Histogram(MetricStageSeconds, stage).Observe(f.Dur.Seconds())
	if f.Err != nil {
		s.reg.Counter(MetricStageErrors, stage).Inc()
	}
	if assembled {
		s.reg.Counter(MetricAssemblyFlops).Add(flops)
		s.reg.Gauge(MetricAssemblyImbalanceMax).SetMax(imbalance)
	}
}
