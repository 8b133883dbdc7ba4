package obs

import (
	"sync"
	"time"
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
}

// StageSink is the one consumer of stage spans (see Stage). It keeps
// the live stage timeline of the run it is attached to and feeds the
// per-stage metrics of reg: stage wall-clock times into the per-stage
// latency histograms (errored executions included — an aborted solve
// still consumed its wall-clock) and stage failures into the error
// counters. The service attaches one per job, sharing its registry;
// cmd/brainsim attaches one for its run. Spans that are not stages pass
// through untouched. Safe for concurrent use.
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
	s.mu.Lock()
	for i := len(s.events) - 1; i >= 0; i-- {
		if e := &s.events[i]; e.Stage == f.Name && !e.Done {
			e.Elapsed, e.Done, e.Err = f.Dur, true, f.Err
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
}
