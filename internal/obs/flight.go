package obs

import (
	"context"
	"sync"
)

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
	buf   []SpanRecord
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
	return &FlightRecorder{buf: make([]SpanRecord, 0, capacity)}
}

// Record appends one record, overwriting the oldest when full.
func (r *FlightRecorder) Record(rec SpanRecord) {
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

// SpanEnded implements Sink: the record a Tracer on the same context
// writes. Records land in the ring in End order.
func (r *FlightRecorder) SpanEnded(f FinishedSpan) {
	r.Record(f.record())
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
func (r *FlightRecorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
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
