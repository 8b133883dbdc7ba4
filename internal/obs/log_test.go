package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
)

// TestContextHandlerCorrelationRoundTrip is the end-to-end identity
// check of the logging pipeline: a record logged under a session, job,
// and span context must carry all three correlators in its rendered
// output AND land in the session's flight recorder with the same
// identity — so a log line in an anomaly dump can always be joined back
// to its span tree.
func TestContextHandlerCorrelationRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(slog.NewJSONHandler(&buf, nil))

	r := NewFlightRecorder(8)
	ctx := WithFlightRecorder(WithJobID(WithSessionID(context.Background(), "or-3"), "j000009"), r)
	ctx, span := StartSpan(ctx, SpanPipelineRun)
	defer span.End(nil)

	log.InfoContext(ctx, "scan started", "kind", "update")

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log output is not JSON: %v\n%s", err, buf.String())
	}
	if line["msg"] != "scan started" || line["kind"] != "update" {
		t.Errorf("record body mangled: %v", line)
	}
	if line["session"] != "or-3" || line["job"] != "j000009" {
		t.Errorf("correlators = session %v job %v, want or-3/j000009", line["session"], line["job"])
	}
	if line["span"] != SpanPipelineRun.String() {
		t.Errorf("span = %v, want %q", line["span"], SpanPipelineRun.String())
	}
	if line["trace"] == nil || line["span_id"] == nil {
		t.Errorf("missing trace/span_id correlators: %v", line)
	}

	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("flight records = %d, want 1", len(snap))
	}
	rec := snap[0]
	if rec.Kind != "log" || rec.Name != "scan started" || rec.Level != "INFO" {
		t.Errorf("flight record = %+v", rec)
	}
	if rec.Session != "or-3" || rec.Job != "j000009" || rec.Parent != span.ID() {
		t.Errorf("flight record identity = %q/%q/%d, want or-3/j000009/%d",
			rec.Session, rec.Job, rec.Parent, span.ID())
	}
	if rec.Attrs["kind"] != "update" {
		t.Errorf("flight record attrs = %v, want kind=update", rec.Attrs)
	}
	// The identity correlators live on the record envelope; teeing them
	// into Attrs too would double them in every dump line.
	if _, ok := rec.Attrs["session"]; ok {
		t.Error("session duplicated into flight-record attrs")
	}
}

func TestContextHandlerPlainContext(t *testing.T) {
	// No session, job, span, or recorder: the handler must pass the
	// record through untouched (no empty correlator attrs).
	var buf bytes.Buffer
	log := NewLogger(slog.NewJSONHandler(&buf, nil))
	log.InfoContext(context.Background(), "hello")
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"session", "job", "span", "span_id", "trace"} {
		if _, ok := line[k]; ok {
			t.Errorf("correlator %q present on a bare-context record: %v", k, line)
		}
	}
}

func TestContextHandlerWithAttrsAndGroup(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(slog.NewJSONHandler(&buf, nil))
	log = log.With("component", "service").WithGroup("g")
	ctx := WithSessionID(context.Background(), "or-9")
	log.InfoContext(ctx, "grouped", "k", 1)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line["component"] != "service" {
		t.Errorf("WithAttrs lost: %v", line)
	}
	g, _ := line["g"].(map[string]any)
	if g == nil || g["k"] != 1.0 {
		t.Errorf("WithGroup lost: %v", line)
	}
}

func TestNopLogger(t *testing.T) {
	log := NopLogger()
	log.Info("discarded", "k", "v") // must not panic or write anywhere
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Error("NopLogger must report every level disabled")
	}
	// Rendering nothing is not recording nothing: under a flight
	// recorder the record still reaches the ring.
	r := NewFlightRecorder(4)
	log.WarnContext(WithFlightRecorder(context.Background(), r), "scan shed", "reason", "queue full")
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Kind != "log" || snap[0].Attrs["reason"] != "queue full" {
		t.Errorf("ring after a nop-logged record = %+v, want the one log record", snap)
	}
}
