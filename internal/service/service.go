// Package service turns the registration pipeline into a concurrent
// intraoperative service: it owns the surgical sessions of many
// simultaneous operating rooms, runs newly acquired scans through a
// bounded worker pool, and exposes per-stage progress events and
// aggregate metrics for every scan. This is the deployment shape the
// paper describes — the computational core runs remotely "during
// surgery", with the surgeon waiting on a hard time budget — so every
// scan is driven by a context.Context: a cancelled context aborts the
// solve within one GMRES restart cycle, and an expired deadline after
// the surface stage degrades to the rigid-only result instead of
// failing the scan (see core.Session.Register).
//
// The service is also the anchor of the observability surface: its obs
// registry is the one count of every aggregate, read as Prometheus text
// on the admin server's /metrics (see admin.go), and finished jobs are
// retained for a while so /jobs/{id} can answer after the fact.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/volume"
)

// Typed service errors, matched with errors.Is.
var (
	// ErrClosed is returned once the service has been closed.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull is returned when the scan queue is at capacity; the
	// caller should retry or shed load (the surgeon cannot wait on an
	// unbounded backlog anyway).
	ErrQueueFull = errors.New("service: scan queue full")
	// ErrUnknownSession is returned for session ids never opened (or
	// already closed).
	ErrUnknownSession = errors.New("service: unknown session")
	// ErrDuplicateSession is returned when opening an id twice.
	ErrDuplicateSession = errors.New("service: session already open")
	// ErrUnknownJob is returned by Job lookups for ids never assigned
	// or already evicted from the retention window.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobPanicked is the error of a job whose scan panicked — in a
	// stage body or a span sink on its context. The error text carries
	// the panic value and the goroutine stack; the worker, the session
	// and every other job carry on.
	ErrJobPanicked = errors.New("service: job panicked")
)

// Options configures the service.
type Options struct {
	// Workers is the worker-pool size: the number of scans registered
	// concurrently across all sessions. Default 2.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted scans.
	// Submit fails with ErrQueueFull beyond it. Default 16.
	QueueDepth int
	// ScanTimeout, when positive, imposes a default per-scan deadline on
	// top of the caller's context — the paper's intraoperative time
	// budget. Zero means no service-imposed deadline.
	ScanTimeout time.Duration
	// FlightRecorderSize bounds each session's flight-recorder ring (the
	// per-session black box of recent spans and log records).
	// Default 256 records.
	FlightRecorderSize int
	// FlightDumpDir, when non-empty, additionally writes every automatic
	// flight-recorder dump as a JSONL file "<session>-<job>.jsonl" in
	// that directory; dumps are always retrievable in memory via
	// /sessions/{id}/flightrecorder regardless.
	FlightDumpDir string
	// Logger renders the service's structured log records, through an
	// obs.ContextHandler (New wraps a logger that is not built on one):
	// it stamps session/job/span identity on each record and files it in
	// the session's flight recorder. Nil renders nothing; the flight
	// recorder still gets them.
	Logger *slog.Logger
	// ArtifactStore, when non-nil, is injected into every opened
	// session whose Config does not already carry one: sessions sharing
	// a preoperative volume then share the content-addressed stage
	// cache (and deduplicate in-flight preop computation), so the
	// second registration of the same preop skips straight to the
	// intraoperative stages. Its stats are served at /artifacts on the
	// admin surface.
	ArtifactStore *artifact.Store
}

// Service is a concurrent registration service. Create it with New,
// open one session per surgery, then Submit intraoperative scans; all
// methods are safe for concurrent use.
type Service struct {
	opts  Options
	queue chan scanRequest
	wg    sync.WaitGroup
	reg   *obs.Registry
	rt    *obs.RuntimeCollector
	log   *slog.Logger

	// workersAlive tracks workers that have started and not yet exited —
	// the liveness signal behind /healthz.
	workersAlive atomic.Int64

	// mu guards the fields below. jobs holds the last Workers +
	// QueueDepth jobs submitted — as many as the service can have
	// accepted at one time — in jobOrder; older ones are evicted
	// (brainsim_jobs_evicted_total). A retained job keeps its Result, so
	// this bounds the results the service itself holds on to.
	mu       sync.Mutex
	sessions map[string]*managedSession
	closed   bool
	jobSeq   int
	jobs     map[string]*Job
	jobOrder []string
}

// scanRequest is one accepted submission on its way to a worker: the
// job handle plus everything the scan needs and the handle must not
// keep. A finished Job stays addressable for the retention window, so
// it holds no session, scan volume or caller context — closing a
// session frees its baseline even while its jobs are retained.
type scanRequest struct {
	j       *Job
	ctx     context.Context
	ms      *managedSession
	intraop *volume.Scalar
}

// managedSession pairs a core.Session with the gate that serializes
// its scans: the session's statistical tissue model mutates from scan
// to scan, so two scans of one surgery must not interleave, while scans
// of different surgeries run in parallel across the pool. The gate is
// a one-slot channel rather than a mutex so that no lock is held
// across the scan itself (the whole registration pipeline would sit in
// the critical section — see the lockscope analyzer) and a waiting
// worker can abandon the wait when the job's context dies.
type managedSession struct {
	id   string
	gate chan struct{}
	sess *core.Session
	// fr is the session's flight recorder: the bounded ring of recent
	// spans and log records that backs the automatic anomaly dumps and
	// the /sessions/{id}/flightrecorder endpoint.
	fr *obs.FlightRecorder

	// dumpMu guards lastDump. It is a leaf lock: never acquired while
	// holding Service.mu or any instrument lock.
	dumpMu   sync.Mutex
	lastDump *FlightDump
}

func newManagedSession(id string, sess *core.Session, frSize int) *managedSession {
	return &managedSession{
		id: id, gate: make(chan struct{}, 1), sess: sess,
		fr: obs.NewFlightRecorder(frSize),
	}
}

// telemetry stamps ctx with the session's identity and flight recorder:
// spans ended and records logged under the result land in its ring.
func (ms *managedSession) telemetry(ctx context.Context) context.Context {
	return obs.WithFlightRecorder(obs.WithSessionID(ctx, ms.id), ms.fr)
}

// setDump stores the session's most recent automatic dump.
func (ms *managedSession) setDump(d *FlightDump) {
	ms.dumpMu.Lock()
	ms.lastDump = d
	ms.dumpMu.Unlock()
}

// LastDump returns the most recent automatic flight-recorder dump of
// the session, or nil if none was triggered yet.
func (ms *managedSession) LastDump() *FlightDump {
	ms.dumpMu.Lock()
	defer ms.dumpMu.Unlock()
	return ms.lastDump
}

// FlightDump is one automatically captured flight-recorder snapshot:
// the records that led up to a job anomaly (degradation, fallback,
// shed, non-convergence, failure), frozen at the moment the trigger
// fired while live recording continued.
type FlightDump struct {
	SessionID string           `json:"session_id"`
	JobID     string           `json:"job_id,omitempty"`
	Trigger   string           `json:"trigger"` // degraded | fallback | shed | nonconverged | failed
	Time      time.Time        `json:"time"`
	Records   []obs.SpanRecord `json:"records"`
}

// acquire claims the session's scan slot, or gives up when ctx ends
// first — a queued job whose caller has gone away should release its
// worker, not wait for a slot it will never use.
func (ms *managedSession) acquire(ctx context.Context) error {
	select {
	case ms.gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees the scan slot taken by acquire.
func (ms *managedSession) release() { <-ms.gate }

// New starts a service with the given options.
func New(opts Options) *Service {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	} else if _, ok := opts.Logger.Handler().(*obs.ContextHandler); !ok {
		opts.Logger = obs.NewLogger(opts.Logger.Handler())
	}
	reg := obs.NewRegistry()
	s := &Service{
		opts:     opts,
		queue:    make(chan scanRequest, opts.QueueDepth),
		sessions: make(map[string]*managedSession),
		jobs:     make(map[string]*Job),
		reg:      reg,
		rt:       obs.NewRuntimeCollector(reg),
		log:      opts.Logger,
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		s.workersAlive.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the obs registry holding the service's metrics —
// the same one the admin server exposes on /metrics.
func (s *Service) Registry() *obs.Registry {
	return s.reg
}

// ArtifactStore returns the shared stage cache configured at
// construction, or nil when the service runs uncached.
func (s *Service) ArtifactStore() *artifact.Store {
	return s.opts.ArtifactStore
}

// logger returns the configured logger, or the nop logger for a
// zero-value Service built without New (white-box tests).
func (s *Service) logger() *slog.Logger {
	if s.log == nil {
		return obs.NopLogger()
	}
	return s.log
}

// SessionSpec describes a surgical session to open. The struct form
// (rather than positional arguments) leaves room for per-session policy
// to grow without breaking every caller.
type SessionSpec struct {
	// ID names the session; required, unique among open sessions, and a
	// single path element, because it names the session's flight-dump
	// files and its /sessions/{id} admin routes.
	ID string
	// Config is the pipeline configuration.
	Config core.Config
	// Preop and PreopLabels are the preoperative preparation.
	Preop       *volume.Scalar
	PreopLabels *volume.Labels
}

// Validate reports every problem with the spec at once, mirroring
// core.Config.Validate: the operating room is not the place to discover
// a bad parameter mid-scan.
func (sp SessionSpec) Validate() error {
	var errs []error
	switch {
	case sp.ID == "":
		errs = append(errs, errors.New("ID must be non-empty"))
	case sp.ID == "." || sp.ID == ".." || strings.ContainsAny(sp.ID, `/\`):
		errs = append(errs, fmt.Errorf("ID %q must be a single path element (no /, \\, . or ..)", sp.ID))
	}
	if err := sp.Config.Validate(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("service: invalid session spec: %w", errors.Join(errs...))
}

// Open prepares a surgical session from the preoperative data described
// by spec. The spec is validated up front.
func (s *Service) Open(spec SessionSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.Config.ArtifactStore == nil {
		spec.Config.ArtifactStore = s.opts.ArtifactStore
	}
	sess, err := core.NewSession(spec.Config, spec.Preop, spec.PreopLabels)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.sessions[spec.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSession, spec.ID)
	}
	s.sessions[spec.ID] = newManagedSession(spec.ID, sess, s.opts.FlightRecorderSize)
	return nil
}

// CloseSession forgets a session. Scans already queued or in flight
// finish normally; new Submits fail with ErrUnknownSession.
func (s *Service) CloseSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	delete(s.sessions, id)
	return nil
}

// managed returns the managed session wrapper for id.
func (s *Service) managed(id string) (*managedSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return ms, nil
}

// FlightDumpInfo summarizes one automatic dump on /sessions (the full
// records are on /sessions/{id}/flightrecorder?dump=last).
type FlightDumpInfo struct {
	JobID   string    `json:"job_id,omitempty"`
	Trigger string    `json:"trigger"`
	Time    time.Time `json:"time"`
	Records int       `json:"records"`
}

// SessionStatus is the wire form of one open session on /sessions.
type SessionStatus struct {
	ID          string `json:"id"`
	HasBaseline bool   `json:"has_baseline"`
	Scans       int    `json:"scans"`
	// FlightRecords / FlightCapacity / FlightTotal describe the
	// session's flight-recorder ring: currently retained, the bound, and
	// ever recorded.
	FlightRecords  int             `json:"flight_records"`
	FlightCapacity int             `json:"flight_capacity"`
	FlightTotal    uint64          `json:"flight_total"`
	LastDump       *FlightDumpInfo `json:"last_dump,omitempty"`
}

func (ms *managedSession) status() SessionStatus {
	st := SessionStatus{
		ID:             ms.id,
		HasBaseline:    ms.sess.HasBaseline(),
		Scans:          ms.sess.ScanCount(),
		FlightRecords:  ms.fr.Len(),
		FlightCapacity: ms.fr.Capacity(),
		FlightTotal:    ms.fr.Total(),
	}
	if d := ms.LastDump(); d != nil {
		st.LastDump = &FlightDumpInfo{
			JobID: d.JobID, Trigger: d.Trigger, Time: d.Time, Records: len(d.Records),
		}
	}
	return st
}

// Sessions snapshots every open session for the admin surface, sorted
// by id.
func (s *Service) Sessions() []SessionStatus {
	s.mu.Lock()
	mss := make([]*managedSession, 0, len(s.sessions))
	for _, ms := range s.sessions {
		mss = append(mss, ms)
	}
	s.mu.Unlock()
	// Status reads take session-local leaf locks; outside s.mu.
	out := make([]SessionStatus, 0, len(mss))
	for _, ms := range mss {
		out = append(out, ms.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionFlightRecords returns the live contents of a session's flight
// recorder, oldest first.
func (s *Service) SessionFlightRecords(id string) ([]obs.SpanRecord, error) {
	ms, err := s.managed(id)
	if err != nil {
		return nil, err
	}
	return ms.fr.Snapshot(), nil
}

// SessionLastDump returns a session's most recent automatic
// flight-recorder dump (nil when no anomaly has triggered one).
func (s *Service) SessionLastDump(id string) (*FlightDump, error) {
	ms, err := s.managed(id)
	if err != nil {
		return nil, err
	}
	return ms.LastDump(), nil
}

// Submit enqueues one newly acquired intraoperative scan for a full
// registration of the given session and returns immediately with a Job
// handle; use Job.Wait for the result. ctx governs the whole job —
// queue wait included — and is further bounded by Options.ScanTimeout
// once the job starts. A full queue fails fast with ErrQueueFull rather
// than blocking the scanner; shed submissions are counted
// (brainsim_shed_total) so overload is visible on the admin surface.
func (s *Service) Submit(ctx context.Context, sessionID string, intraop *volume.Scalar) (*Job, error) {
	return s.submit(ctx, sessionID, intraop, JobRegister)
}

// SubmitUpdate enqueues one streaming intraoperative scan for an
// incremental re-solve against the session's baseline (see
// core.Session.Update). A session without a baseline — no successful
// full registration yet — runs the job as a full registration instead
// and marks it FellBack; admission and context semantics match Submit.
func (s *Service) SubmitUpdate(ctx context.Context, sessionID string, intraop *volume.Scalar) (*Job, error) {
	return s.submit(ctx, sessionID, intraop, JobUpdate)
}

func (s *Service) submit(ctx context.Context, sessionID string, intraop *volume.Scalar, kind JobKind) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if intraop == nil {
		return nil, fmt.Errorf("service: nil intraoperative scan")
	}
	// Explicit unlocks rather than a deferred one: the metric updates
	// at the end take instrument locks, which must not nest inside s.mu
	// (lockscope).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	ms, ok := s.sessions[sessionID]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, sessionID)
	}
	s.jobSeq++
	j := &Job{
		ID:        fmt.Sprintf("j%06d", s.jobSeq),
		SessionID: sessionID,
		Kind:      kind,
		enqueued:  time.Now(),
		done:      make(chan struct{}),
		stages:    obs.NewStageSink(s.reg),
	}
	select {
	case s.queue <- scanRequest{j: j, ctx: ctx, ms: ms, intraop: intraop}:
		evicted := s.retainJobLocked(j)
		s.mu.Unlock()
		s.reg.Counter(obs.MetricSubmissions).Inc()
		s.reg.Counter(obs.MetricJobsEvicted).Add(float64(evicted))
		return j, nil
	default:
		s.jobSeq-- // the id was never issued
		s.mu.Unlock()
		s.shedJob(ctx, ms, kind)
		return nil, ErrQueueFull
	}
}

// shedJob accounts one load-shed submission: the shed metric, one log
// record — filed in the session's flight recorder — and an automatic
// dump holding it: a shed scan is an anomaly the surgeon will ask about.
// Called WITHOUT s.mu held.
func (s *Service) shedJob(ctx context.Context, ms *managedSession, kind JobKind) {
	s.reg.Counter(obs.MetricShed).Inc()
	s.logger().WarnContext(ms.telemetry(ctx), "scan shed", "kind", string(kind), "reason", "queue full")
	s.dumpFlight(ms, "", "shed")
}

// retainJobLocked registers the job for admin lookup and evicts the
// oldest beyond the Workers + QueueDepth retention window, returning how
// many were evicted (the caller feeds the eviction metric after
// releasing s.mu — metric locks never nest inside it). Caller holds
// s.mu.
func (s *Service) retainJobLocked(j *Job) (evicted int) {
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	for len(s.jobOrder) > s.opts.Workers+s.opts.QueueDepth {
		delete(s.jobs, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
		evicted++
	}
	return evicted
}

// Job returns the job with the given id, if still retained.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs returns the retained jobs, oldest first.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		out = append(out, s.jobs[id])
	}
	return out
}

// QueueDepth reports how many accepted scans are waiting for a worker.
func (s *Service) QueueDepth() int {
	return len(s.queue)
}

// QueueCapacity reports the configured queue bound.
func (s *Service) QueueCapacity() int {
	return cap(s.queue)
}

// WorkersAlive reports how many pool workers are currently running —
// Options.Workers until Close drains them.
func (s *Service) WorkersAlive() int {
	return int(s.workersAlive.Load())
}

// Close stops the service: no new sessions or scans are accepted,
// queued jobs are drained, and Close returns once every worker has
// exited. It is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// worker drains the scan queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	defer s.workersAlive.Add(-1)
	for q := range s.queue {
		s.runJob(q)
	}
}

// runJob executes one queued scan. The scan runs under a context
// stamped with the session/job identity and carrying two span sinks —
// the session's flight recorder and the job's stage sink — so every
// span the pipeline opens and every log record written below lands in
// the session's black box with matching ids, and each stage span becomes
// one entry of the job's timeline and one observation of the stage
// histograms.
func (s *Service) runJob(q scanRequest) {
	j, ms := q.j, q.ms
	defer close(j.done)
	start := time.Now()
	j.setStarted(start)
	ctx := obs.WithSink(obs.WithJobID(ms.telemetry(q.ctx), j.ID), j.stages)
	if s.opts.ScanTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.ScanTimeout)
		defer cancel()
	}
	// Abandoned while queued (caller gave up or deadline passed): don't
	// waste a worker on it. Otherwise scans of one session are
	// serialized by the session gate.
	err := ctx.Err()
	if err == nil {
		err = ms.acquire(ctx)
	}
	if err != nil {
		j.finish(nil, err)
		scanDone(s.reg, j.Kind, 0, nil, err)
		return
	}
	// The effective kind is resolved under the gate: HasBaseline is
	// written by the previous scan of this session, which the gate
	// serializes against.
	kind := j.Kind
	if kind == JobUpdate && !ms.sess.HasBaseline() {
		kind = JobRegister
		j.markFellBack()
		s.reg.Counter(obs.MetricUpdateFallbacks).Inc()
		s.logger().WarnContext(ctx, "update fell back to full registration", "reason", "no baseline")
	}
	s.logger().InfoContext(ctx, "scan started", "kind", string(kind),
		"queue_wait_ms", float64(start.Sub(j.enqueued))/float64(time.Millisecond))
	res, err := scan(ctx, ms.sess, kind, q.intraop)
	ms.release()
	j.finish(res, err)
	scanDone(s.reg, kind, time.Since(start), res, err)

	// Anomaly triage: any of these outcomes freezes the flight recorder
	// into a retrievable dump. One dump per job, worst trigger wins; the
	// log record names the outcome, the spans already in the ring under
	// this job's id state its facts (pipeline.run the interrupted stage,
	// fem.solve the solver's statistics).
	switch {
	case err != nil:
		s.logger().ErrorContext(ctx, "scan failed", "error", err.Error())
		s.dumpFlight(ms, j.ID, "failed")
	case res != nil && res.Degraded:
		s.logger().WarnContext(ctx, "scan degraded to rigid-only result")
		s.dumpFlight(ms, j.ID, "degraded")
	case res != nil && !res.SolveStats.Converged:
		s.logger().WarnContext(ctx, "solve did not converge")
		s.dumpFlight(ms, j.ID, "nonconverged")
	case j.FellBack():
		s.dumpFlight(ms, j.ID, "fallback")
	default:
		s.logger().InfoContext(ctx, "scan completed", "kind", string(kind),
			"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond))
	}
}

// scan runs one scan on the session. A panic in it — a stage body, or a
// sink on the job's context — unwinds no further than this frame: it
// becomes the job's ErrJobPanicked, so the fault costs one job, not the
// worker and every open session with it.
func scan(ctx context.Context, sess *core.Session, kind JobKind, intraop *volume.Scalar) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v\n%s", ErrJobPanicked, p, debug.Stack())
		}
	}()
	if kind == JobUpdate {
		return sess.Update(ctx, intraop)
	}
	return sess.Register(ctx, intraop)
}

// dumpFlight freezes the session's flight recorder into a FlightDump:
// retained on the session (served by /sessions/{id}/flightrecorder),
// optionally written as JSONL to Options.FlightDumpDir, and counted by
// trigger. Live recording continues in the ring.
func (s *Service) dumpFlight(ms *managedSession, jobID, trigger string) {
	d := &FlightDump{
		SessionID: ms.id,
		JobID:     jobID,
		Trigger:   trigger,
		Time:      time.Now(),
		Records:   ms.fr.Snapshot(),
	}
	ms.setDump(d)
	s.reg.Counter(obs.MetricFlightDumps, obs.Label{Key: "trigger", Value: trigger}).Inc()
	if dir := s.opts.FlightDumpDir; dir != "" {
		name := ms.id
		if jobID != "" {
			name += "-" + jobID
		}
		path := filepath.Join(dir, name+".jsonl")
		if err := writeDumpFile(path, d.Records); err != nil {
			s.logger().Error("flight-recorder dump write failed", "path", path, "error", err.Error())
		}
	}
}

// writeDumpFile writes one dump as a JSONL file.
func writeDumpFile(path string, recs []obs.SpanRecord) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return obs.WriteSpans(f, recs)
}
