package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// StageEvent is one per-stage progress record of a job — the live
// feed behind the paper's Figure 6 timeline, as the job's stage sink
// recorded it from the pipeline's stage spans.
type StageEvent = obs.StageEvent

// JobKind distinguishes the two scan-processing paths of the service.
type JobKind string

const (
	// JobRegister is a full cold registration (all six pipeline stages).
	JobRegister JobKind = "register"
	// JobUpdate is an incremental re-solve of a streaming scan against
	// the session baseline (warm-started solve, patched boundary
	// conditions, cached preconditioner).
	JobUpdate JobKind = "update"
)

// Job is the handle of one submitted scan.
type Job struct {
	// ID is the service-assigned job identifier ("j000042"), unique for
	// the lifetime of the service and addressable on the admin surface
	// as /jobs/{id}.
	ID string
	// SessionID names the surgical session the scan belongs to.
	SessionID string
	// Kind is the requested processing path. An update submitted before
	// the session has a baseline falls back to a full registration at
	// run time (see FellBack in the job status).
	Kind JobKind

	enqueued time.Time

	done chan struct{}

	// stages is the job's sink on the pipeline's span seam: the live
	// stage timeline, also feeding the service registry. It locks
	// itself; never call it with mu held.
	stages *obs.StageSink

	// mu guards everything below: the admin server reads jobs while
	// workers mutate them.
	mu       sync.Mutex
	started  time.Time
	fellBack bool
	result   *core.Result
	err      error
}

// Done returns a channel closed when the job has finished.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx expires. Note that a ctx
// expiry here only abandons the wait; the submission context passed to
// Submit is what cancels the computation itself.
func (j *Job) Wait(ctx context.Context) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Events returns a copy of the per-stage progress events recorded so
// far. It is safe to call while the job is running.
func (j *Job) Events() []StageEvent { return j.stages.Events() }

// QueueWait returns how long the job sat in the queue before a worker
// picked it up (zero while still queued).
func (j *Job) QueueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		return 0
	}
	return j.started.Sub(j.enqueued)
}

// setStarted records the moment a worker picked the job up.
func (j *Job) setStarted(t time.Time) {
	j.mu.Lock()
	j.started = t
	j.mu.Unlock()
}

// markFellBack records that an update job ran as a full registration
// because the session had no baseline yet.
func (j *Job) markFellBack() {
	j.mu.Lock()
	j.fellBack = true
	j.mu.Unlock()
}

// FellBack reports whether an update job fell back to a full
// registration.
func (j *Job) FellBack() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fellBack
}

// finish records the terminal result. The done channel is closed by the
// caller afterwards, so Wait observes result and err fully written.
func (j *Job) finish(res *core.Result, err error) {
	j.mu.Lock()
	j.result, j.err = res, err
	j.mu.Unlock()
}

// JobStageStatus is the wire form of one stage event on /jobs/{id}.
type JobStageStatus struct {
	Stage     string  `json:"stage"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Done      bool    `json:"done"`
	Error     string  `json:"error,omitempty"`
}

// JobStatus is the wire form of a job on the admin surface: the live
// stage timeline plus the terminal outcome once there is one.
type JobStatus struct {
	ID        string `json:"id"`
	SessionID string `json:"session_id"`
	Kind      string `json:"kind"`  // register | update
	State     string `json:"state"` // queued | running | done
	// FellBack marks an update that ran as a full registration because
	// the session had no baseline.
	FellBack bool      `json:"fell_back,omitempty"`
	Enqueued time.Time `json:"enqueued"`
	// QueueWaitMS is how long the job sat in the queue (zero while
	// still queued).
	QueueWaitMS float64          `json:"queue_wait_ms"`
	Stages      []JobStageStatus `json:"stages,omitempty"`
	Degraded    bool             `json:"degraded,omitempty"`
	Error       string           `json:"error,omitempty"`
}

// Status snapshots the job for the admin surface. Safe to call at any
// point in the job's life, including while stages are running.
func (j *Job) Status() JobStatus {
	st := JobStatus{ID: j.ID, SessionID: j.SessionID, Kind: string(j.Kind), Enqueued: j.enqueued}
	finished := false
	select {
	case <-j.done:
		finished = true
	default:
	}
	j.mu.Lock()
	switch {
	case finished:
		st.State = "done"
	case !j.started.IsZero():
		st.State = "running"
	default:
		st.State = "queued"
	}
	st.FellBack = j.fellBack
	if !j.started.IsZero() {
		st.QueueWaitMS = float64(j.started.Sub(j.enqueued)) / float64(time.Millisecond)
	}
	if finished {
		if j.err != nil {
			st.Error = j.err.Error()
		}
		if j.result != nil {
			st.Degraded = j.result.Degraded
		}
	}
	j.mu.Unlock()
	for _, e := range j.Events() {
		ss := JobStageStatus{
			Stage:     e.Stage,
			ElapsedMS: float64(e.Elapsed) / float64(time.Millisecond),
			Done:      e.Done,
		}
		if !e.Done {
			// Live stages report elapsed-so-far, so the timeline moves
			// while the surgeon waits.
			ss.ElapsedMS = float64(time.Since(e.Start)) / float64(time.Millisecond)
		}
		if e.Err != nil {
			ss.Error = e.Err.Error()
		}
		st.Stages = append(st.Stages, ss)
	}
	return st
}
