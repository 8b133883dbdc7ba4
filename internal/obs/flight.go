package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"
)

// FlightRecord is one entry in a flight recorder: a finished span —
// the same span, id and attributes a Tracer on the context writes — or
// a log record (see ContextHandler). Every record carries the
// session/job identity and the innermost span that were on the context
// when it was produced, so a dump can be correlated line-by-line with
// the trace stream and the job log.
type FlightRecord struct {
	// Time is when the record was produced — the end time for "span"
	// records (ring order is End order, so dumps stay monotonically
	// timestamped; the span's start is Time minus DurMS), the log time
	// for logs.
	Time time.Time `json:"t"`
	// Kind is "span" or "log".
	Kind    string `json:"kind"`
	Session string `json:"session,omitempty"`
	Job     string `json:"job,omitempty"`
	// Span and SpanID identify the record's span: for span records the
	// span itself, for logs the innermost enclosing span.
	Span   string `json:"span,omitempty"`
	SpanID uint64 `json:"span_id,omitempty"`
	// Trace is the root-span id of the span tree the record belongs to.
	Trace uint64 `json:"trace,omitempty"`
	// Name is the span name or the log message.
	Name string `json:"name"`
	// Level is the log level of "log" records.
	Level string `json:"level,omitempty"`
	// DurMS is the span duration of "span" records.
	DurMS float64        `json:"dur_ms,omitempty"`
	Err   string         `json:"err,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// defaultFlightRecorderCap bounds a recorder created with a
// non-positive capacity.
const defaultFlightRecorderCap = 256

// FlightRecorder is a bounded ring buffer of recent telemetry records —
// the per-session black box. Recording is cheap and never blocks the
// recording goroutine beyond one short mutex; once the ring is full the
// oldest record is overwritten. When a job degrades, falls back, is
// shed, or fails to converge, the service snapshots the ring into a
// JSONL dump (see the service layer's flight-dump triggers), so the
// records leading up to the anomaly are preserved even though live
// recording continues. Safe for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []FlightRecord
	next  int
	full  bool
	total uint64
}

// NewFlightRecorder returns a recorder retaining the last capacity
// records (non-positive: a default of 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightRecorderCap
	}
	return &FlightRecorder{buf: make([]FlightRecord, 0, capacity)}
}

// Record appends one record, overwriting the oldest when full.
func (r *FlightRecorder) Record(rec FlightRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
		r.full = true
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// SpanStarted implements Sink; the ring records finished spans only.
func (r *FlightRecorder) SpanStarted(SpanInfo) {}

// SpanEnded implements Sink. Records land in the ring in End order, so
// the record is stamped with the end time — dumps stay monotonically
// timestamped (the start is recoverable as Time - DurMS; the trace
// stream's SpanRecord keeps Start).
func (r *FlightRecorder) SpanEnded(f FinishedSpan) {
	r.Record(FlightRecord{
		Time: f.Start.Add(f.Dur), Kind: "span", Session: f.Session, Job: f.Job,
		Span: f.Name, SpanID: f.ID, Trace: f.Trace, Name: f.Name,
		DurMS: f.durMS(), Err: f.errString(), Attrs: f.Attrs,
	})
}

// Len reports how many records are currently retained.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Capacity reports the ring bound.
func (r *FlightRecorder) Capacity() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Total reports how many records were ever recorded; Total()-Len() of
// them have been overwritten by newer ones.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained records, oldest first. The copy shares
// no state with the ring; recording continues undisturbed.
func (r *FlightRecorder) Snapshot() []FlightRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightRecord, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// WriteJSONL writes the retained records oldest-first, one JSON object
// per line — the dump format of the /sessions/{id}/flightrecorder admin
// endpoint.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	return WriteFlightRecords(w, r.Snapshot())
}

// WriteFlightRecords writes records as JSONL — the shared encoder of
// live-ring and retained-dump serving.
func WriteFlightRecords(w io.Writer, recs []FlightRecord) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadFlightRecords parses a JSONL flight dump back into records — the
// inverse of WriteJSONL, for tests and offline analysis.
func ReadFlightRecords(r io.Reader) ([]FlightRecord, error) {
	dec := json.NewDecoder(r)
	var out []FlightRecord
	for {
		var rec FlightRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}

const (
	sessionIDKey ctxKey = iota + 16 // offset clear of the sink/span keys
	jobIDKey
	recorderKey
)

// WithSessionID returns a context carrying the surgical session id;
// spans and log records produced under it are stamped with it.
func WithSessionID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, sessionIDKey, id)
}

// SessionIDFromContext returns the context's session id, or "".
func SessionIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(sessionIDKey).(string)
	return id
}

// WithJobID returns a context carrying the service job id; spans and
// log records produced under it are stamped with it.
func WithJobID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, jobIDKey, id)
}

// JobIDFromContext returns the context's job id, or "".
func JobIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey).(string)
	return id
}

// WithFlightRecorder returns a context carrying the flight recorder:
// it is a Sink for the spans ended under the context, and log records
// handled under it (see ContextHandler) are recorded there too.
func WithFlightRecorder(ctx context.Context, r *FlightRecorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(WithSink(ctx, r), recorderKey, r)
}

// FlightRecorderFromContext returns the context's flight recorder, or
// nil.
func FlightRecorderFromContext(ctx context.Context) *FlightRecorder {
	r, _ := ctx.Value(recorderKey).(*FlightRecorder)
	return r
}
