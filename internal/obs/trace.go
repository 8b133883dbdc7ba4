package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Sink is the one seam finished spans travel through. Every sink on a
// context (see WithSink) is told when a span opens under it and is
// handed the finished span when it ends, in the order the sinks were
// attached. Calls arrive on the goroutine that started or ended the
// span; implementations must be quick and safe for concurrent use.
type Sink interface {
	SpanStarted(SpanInfo)
	SpanEnded(FinishedSpan)
}

// SpanInfo identifies a span: its place in the tree, the session/job
// identity stamped on its context (see WithSessionID/WithJobID), and
// when it began. Stage marks a pipeline-stage span (see Stage).
type SpanInfo struct {
	Name    string
	ID      uint64
	Parent  uint64 // 0 for a root span
	Trace   uint64 // the root span's id, shared by the whole tree
	Session string
	Job     string
	Start   time.Time
	Stage   bool
}

// FinishedSpan is a span that has ended. Span.End builds it once and
// every sink renders that one value: the JSONL trace, the flight
// recorder and the stage sink cannot disagree about a duration.
type FinishedSpan struct {
	SpanInfo
	Dur   time.Duration
	Err   error
	Attrs map[string]any // shared between sinks; read-only
}

// record is the span as its JSONL line states it — the one form the
// trace stream and the flight recorder share.
func (f FinishedSpan) record() SpanRecord {
	rec := SpanRecord{
		Name: f.Name, ID: f.ID, Parent: f.Parent, Trace: f.Trace,
		Session: f.Session, Job: f.Job, Start: f.Start,
		DurMS: float64(f.Dur) / float64(time.Millisecond), Attrs: f.Attrs,
	}
	if f.Err != nil {
		rec.Err = f.Err.Error()
	}
	return rec
}

// Tracer is the Sink that writes spans as JSONL structured records: one
// JSON object per line, written when the span ends. Span hierarchy is
// carried on context.Context (WithTracer / StartSpan), so the pipeline,
// the solver's restart cycles, the classifier's worker batches and the
// FEM assembly all nest without explicit plumbing. A Tracer is safe for
// concurrent use; spans may end in any order and from any goroutine.
type Tracer struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewTracer writes spans to w as they end, one JSON object per line.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{enc: json.NewEncoder(w)}
}

// Err returns the first write or encode error encountered, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// SpanStarted implements Sink; the trace records finished spans only.
func (t *Tracer) SpanStarted(SpanInfo) {}

// SpanEnded implements Sink: one SpanRecord line.
func (t *Tracer) SpanEnded(f FinishedSpan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.enc.Encode(f.record()); err != nil && t.err == nil {
		t.err = err
	}
}

// spanSeq issues span ids, unique across every sink in the process so
// a trace line and a flight record of one span carry the same id.
var spanSeq atomic.Uint64

// SpanRecord is the JSONL schema of one finished span — a line of a
// trace stream and an entry of a flight recorder alike — or, with Kind
// "log", of one log line a flight recorder kept (see ContextHandler).
// Parent is 0 for root spans; reconstruct the hierarchy by chasing
// Parent ids. A log line is a leaf: its Parent is the innermost span
// on its context, Name its message, Start its time. Trace is the root
// span's id, shared by the whole tree, and Session/Job carry the
// identity stamped on the context (see WithSessionID/WithJobID) — the
// correlation keys that line the trace stream up with the service's job
// log and flight-recorder dumps.
type SpanRecord struct {
	Name    string         `json:"name"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Trace   uint64         `json:"trace,omitempty"`
	Session string         `json:"session,omitempty"`
	Job     string         `json:"job,omitempty"`
	Start   time.Time      `json:"start"`
	DurMS   float64        `json:"dur_ms"`
	Err     string         `json:"err,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	// Kind is "" for a span and "log" for a log line, whose Level is
	// the slog level.
	Kind  string `json:"kind,omitempty"`
	Level string `json:"level,omitempty"`
}

// WriteSpans writes records as JSONL, one object per line — the format
// a Tracer streams and a flight-recorder dump is written in.
func WriteSpans(w io.Writer, recs []SpanRecord) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpans parses JSONL records back — the inverse of WriteSpans and
// of what a Tracer writes, for tests and offline analysis.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	dec := json.NewDecoder(r)
	var out []SpanRecord
	for {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}

// Span is one timed, attributed region of work. The zero of *Span is
// nil, and every method is nil-safe, so call sites need no guards:
// without a sink on the context, StartSpan returns a nil span and the
// instrumentation costs one context lookup and a clock reading.
type Span struct {
	info  SpanInfo
	sinks []Sink

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.info.Name
}

// ID returns the span's id (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.info.ID
}

// TraceID returns the id of the span tree's root span (0 for a nil
// span) — the handle a log record and the spans of its scan share in a
// trace stream or a flight-recorder dump.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.info.Trace
}

// SetAttr attaches a key/value attribute to the span. Values must be
// JSON-serializable; slices are copied by reference, so do not mutate
// them after attaching. Non-finite floats (a NaN residual after an
// aborted solve) are stored as strings so the JSONL stays parseable.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
		v = fmt.Sprintf("%g", f)
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// End closes the span, timing it from its start to now, and hands the
// finished span to every sink its context carried; err, when non-nil,
// is recorded on the span. End is idempotent — later calls are ignored.
func (s *Span) End(err error) {
	if s != nil {
		s.end(time.Since(s.info.Start), err)
	}
}

// end closes the span with a duration the caller measured.
func (s *Span) end(dur time.Duration, err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	f := FinishedSpan{SpanInfo: s.info, Dur: dur, Err: err, Attrs: s.attrs}
	s.mu.Unlock()
	for _, sink := range s.sinks {
		sink.SpanEnded(f)
	}
}

type ctxKey int

const (
	sinksKey ctxKey = iota
	spanKey
)

// WithSink returns a context whose spans (started from it and its
// descendants) are also delivered to sink, after the sinks already on
// ctx. A nil sink is ignored.
func WithSink(ctx context.Context, sink Sink) context.Context {
	if sink == nil {
		return ctx
	}
	sinks, _ := ctx.Value(sinksKey).([]Sink)
	return context.WithValue(ctx, sinksKey, append(sinks[:len(sinks):len(sinks)], sink))
}

// WithTracer returns a context carrying the tracer; spans started from
// it (and its descendants) are emitted there.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return WithSink(ctx, t)
}

// SpanFromContext returns the innermost span on the context, or nil:
// how a callee states its facts on the region that encloses it (GMRES
// its statistics on fem.solve) instead of opening a record of its own.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan opens a span named name under the context's current span
// and returns a derived context carrying it. Without a sink on the
// context it returns (ctx, nil); the nil span's methods are no-ops, so
// instrumented code needs no guards. Every span must be closed with
// End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return startSpan(ctx, SpanInfo{Name: name, Start: time.Now()})
}

// Stage runs fn as the pipeline stage named name, under a stage span
// when the context carries a sink, and reports how long it took. The
// clock is read once on each side of fn and that one duration is both
// returned and stated on the span, so the caller's timeline and every
// sink agree to the nanosecond. The span is closed even if fn panics.
func Stage(ctx context.Context, name string, fn func(context.Context) error) (elapsed time.Duration, err error) {
	start := time.Now()
	sctx, span := startSpan(ctx, SpanInfo{Name: name, Start: start, Stage: true})
	span.SetAttr("kind", "stage")
	defer func() {
		elapsed = time.Since(start)
		span.end(elapsed, err)
	}()
	err = fn(sctx)
	return
}

// startSpan completes info from the context and announces the span.
func startSpan(ctx context.Context, info SpanInfo) (context.Context, *Span) {
	sinks, _ := ctx.Value(sinksKey).([]Sink)
	if len(sinks) == 0 {
		return ctx, nil
	}
	info.ID = spanSeq.Add(1)
	info.Trace = info.ID
	if parent := SpanFromContext(ctx); parent != nil {
		info.Parent, info.Trace = parent.info.ID, parent.info.Trace
	}
	info.Session, info.Job = SessionIDFromContext(ctx), JobIDFromContext(ctx)
	for _, sink := range sinks {
		sink.SpanStarted(info)
	}
	s := &Span{info: info, sinks: sinks}
	return context.WithValue(ctx, spanKey, s), s
}
