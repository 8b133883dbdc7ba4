package obs

import (
	"context"
	"log/slog"
	"sync"
)

// ContextHandler is a slog.Handler decorator that stamps every record
// with the telemetry identity carried on the logging context — session
// id, job id, and the innermost active span — and tees the record into
// the context's flight recorder. It is the bridge between the logging
// plane and the tracing plane: a log line in the service journal and a
// span in the trace stream that share session/job/span ids describe the
// same moment of the same solve.
type ContextHandler struct {
	inner slog.Handler
}

// NewContextHandler wraps inner with context stamping.
func NewContextHandler(inner slog.Handler) *ContextHandler {
	return &ContextHandler{inner: inner}
}

// NewLogger returns a logger writing JSON records at level through a
// ContextHandler — the service's standard logger shape.
func NewLogger(h slog.Handler) *slog.Logger {
	return slog.New(NewContextHandler(h))
}

// Enabled implements slog.Handler. A context carrying a flight recorder
// enables every level: the ring keeps a record whether or not anything
// renders it.
func (h *ContextHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level) || FlightRecorderFromContext(ctx) != nil
}

// Handle implements slog.Handler: it appends session/job/span
// attributes from ctx, forwards to the wrapped handler, and records the
// line into the context's flight recorder (if any).
func (h *ContextHandler) Handle(ctx context.Context, r slog.Record) error {
	session := SessionIDFromContext(ctx)
	job := JobIDFromContext(ctx)
	sp := SpanFromContext(ctx)
	if session != "" {
		r.AddAttrs(slog.String("session", session))
	}
	if job != "" {
		r.AddAttrs(slog.String("job", job))
	}
	if sp != nil {
		r.AddAttrs(slog.String("span", sp.Name()),
			slog.Uint64("span_id", sp.ID()),
			slog.Uint64("trace", sp.TraceID()))
	}
	var err error
	if h.inner.Enabled(ctx, r.Level) {
		err = h.inner.Handle(ctx, r)
	}
	if rec := FlightRecorderFromContext(ctx); rec != nil {
		fr := SpanRecord{
			Start:   r.Time,
			Kind:    "log",
			Session: session,
			Job:     job,
			Name:    r.Message,
			Level:   r.Level.String(),
			Parent:  sp.ID(),
			Trace:   sp.TraceID(),
		}
		r.Attrs(func(a slog.Attr) bool {
			switch a.Key {
			case "session", "job", "span", "span_id", "trace":
				return true // identity already on the record envelope
			}
			if fr.Attrs == nil {
				fr.Attrs = make(map[string]any)
			}
			fr.Attrs[a.Key] = a.Value.Resolve().Any()
			return true
		})
		rec.Record(fr)
	}
	return err
}

// WithAttrs implements slog.Handler.
func (h *ContextHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &ContextHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h *ContextHandler) WithGroup(name string) slog.Handler {
	return &ContextHandler{inner: h.inner.WithGroup(name)}
}

// nopHandler drops every record. (log/slog gained a stock discard
// handler after the Go version this module targets, so we carry our
// own.)
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLoggerOnce struct {
	sync.Once
	l *slog.Logger
}

// NopLogger returns a logger that renders nothing — the default when no
// logger is configured, so call sites never nil-check. It is still a
// ContextHandler: records logged under a flight recorder reach the ring.
func NopLogger() *slog.Logger {
	nopLoggerOnce.Do(func() {
		nopLoggerOnce.l = NewLogger(nopHandler{})
	})
	return nopLoggerOnce.l
}
