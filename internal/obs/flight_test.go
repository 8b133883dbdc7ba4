package obs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestFlightRecorderRingRotation(t *testing.T) {
	r := NewFlightRecorder(4)
	if got := r.Capacity(); got != 4 {
		t.Fatalf("Capacity = %d, want 4", got)
	}
	for i := 0; i < 10; i++ {
		r.Record(FlightRecord{Kind: "event", Name: fmt.Sprintf("e%d", i)})
	}
	if got := r.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	// Oldest first: the ring kept the last four records in order.
	for i, rec := range snap {
		if want := fmt.Sprintf("e%d", 6+i); rec.Name != want {
			t.Errorf("snap[%d].Name = %q, want %q", i, rec.Name, want)
		}
	}
	// The snapshot is a copy: recording more must not mutate it.
	r.Record(FlightRecord{Kind: "event", Name: "late"})
	if snap[0].Name != "e6" {
		t.Errorf("snapshot mutated by later Record: %q", snap[0].Name)
	}
}

func TestFlightRecorderDefaultsAndNilSafety(t *testing.T) {
	if got := NewFlightRecorder(0).Capacity(); got != defaultFlightRecorderCap {
		t.Errorf("default capacity = %d, want %d", got, defaultFlightRecorderCap)
	}
	var r *FlightRecorder
	r.Record(FlightRecord{Name: "x"}) // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Snapshot() != nil {
		t.Error("nil recorder must report empty state")
	}
}

func TestFlightRecordJSONLRoundTrip(t *testing.T) {
	recs := []FlightRecord{
		{Kind: "span", Session: "or-1", Job: "j000001", Span: "fem.solve",
			SpanID: 3, Trace: 1, Name: "fem.solve", DurMS: 12.5,
			Attrs: map[string]any{"iterations": 17.0}},
		{Kind: "log", Session: "or-1", Level: "WARN", Name: "solver did not converge"},
		{Kind: "event", Name: EventJobShed.String(), Attrs: map[string]any{"reason": "queue full"}},
	}
	var buf bytes.Buffer
	if err := WriteFlightRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(recs) {
		t.Fatalf("wrote %d lines, want %d", n, len(recs))
	}
	back, err := ReadFlightRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("read %d records, want %d", len(back), len(recs))
	}
	if back[0].Session != "or-1" || back[0].Job != "j000001" || back[0].DurMS != 12.5 {
		t.Errorf("span record mangled: %+v", back[0])
	}
	if back[0].Attrs["iterations"] != 17.0 {
		t.Errorf("attrs mangled: %+v", back[0].Attrs)
	}
	if back[1].Level != "WARN" {
		t.Errorf("log level mangled: %+v", back[1])
	}
	if back[2].Name != EventJobShed.String() {
		t.Errorf("event name mangled: %+v", back[2])
	}
}

func TestReadFlightRecordsRejectsGarbage(t *testing.T) {
	if _, err := ReadFlightRecords(strings.NewReader("{\"kind\":\"event\"}\nnot json\n")); err == nil {
		t.Error("garbage line must error")
	}
}

func TestEmitStampsContextIdentity(t *testing.T) {
	r := NewFlightRecorder(16)
	ctx := WithFlightRecorder(WithJobID(WithSessionID(context.Background(), "or-7"), "j000042"), r)
	ctx, span := StartSpan(ctx, SpanFEMSolve)

	Emit(ctx, EventSolverSolve, map[string]any{"iterations": 12})
	span.End(nil)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("records = %d, want 2 (event + span end)", len(snap))
	}
	ev := snap[0]
	if ev.Kind != "event" || ev.Name != EventSolverSolve.String() {
		t.Fatalf("first record = %+v, want the solver.solve event", ev)
	}
	if ev.Session != "or-7" || ev.Job != "j000042" {
		t.Errorf("event identity = session %q job %q, want or-7/j000042", ev.Session, ev.Job)
	}
	if ev.Span != SpanFEMSolve || ev.SpanID != span.ID() || ev.Trace != span.TraceID() {
		t.Errorf("event span linkage = %q/%d/%d, want %q/%d/%d",
			ev.Span, ev.SpanID, ev.Trace, SpanFEMSolve, span.ID(), span.TraceID())
	}
	sp := snap[1]
	if sp.Kind != "span" || sp.Name != SpanFEMSolve || sp.SpanID != span.ID() {
		t.Errorf("span record = %+v", sp)
	}
	if sp.Session != "or-7" || sp.Job != "j000042" {
		t.Errorf("span identity = session %q job %q, want or-7/j000042", sp.Session, sp.Job)
	}
	// Span records are stamped with the span's end time, so the ring's
	// arrival order is also timestamp order: the span that ended after
	// the event it encloses must not be timestamped before it.
	if sp.Time.Before(ev.Time) {
		t.Errorf("span record time %v precedes enclosed event time %v; want end-time stamping", sp.Time, ev.Time)
	}
}

func TestEmitWithoutRecorderIsNoop(t *testing.T) {
	Emit(context.Background(), EventSolverSolve, nil) // must not panic
}

func TestEmitDoesNotAliasCallerAttrs(t *testing.T) {
	// The caller's map must come back untouched — non-finite floats are
	// stringified in a copy — and the retained record must not observe
	// mutations the caller makes after Emit returns.
	r := NewFlightRecorder(4)
	ctx := WithFlightRecorder(context.Background(), r)
	attrs := map[string]any{"residual": math.Inf(1), "iterations": 40.0}
	Emit(ctx, EventSolverSolve, attrs)

	if v, ok := attrs["residual"].(float64); !ok || !math.IsInf(v, 1) {
		t.Errorf("Emit rewrote the caller's map: residual = %v (%T)", attrs["residual"], attrs["residual"])
	}
	attrs["iterations"] = 999.0 // caller reuses the map afterwards
	rec := r.Snapshot()[0]
	if rec.Attrs["residual"] != "+Inf" {
		t.Errorf("record residual = %v, want stringified +Inf", rec.Attrs["residual"])
	}
	if rec.Attrs["iterations"] != 40.0 {
		t.Errorf("record iterations = %v, want the value at Emit time", rec.Attrs["iterations"])
	}
}
