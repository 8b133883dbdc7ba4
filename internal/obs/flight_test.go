package obs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRingRotation(t *testing.T) {
	r := NewFlightRecorder(4)
	if got := r.Capacity(); got != 4 {
		t.Fatalf("Capacity = %d, want 4", got)
	}
	for i := 0; i < 10; i++ {
		r.Record(SpanRecord{Kind: "log", Name: fmt.Sprintf("e%d", i)})
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
	r.Record(SpanRecord{Kind: "log", Name: "late"})
	if snap[0].Name != "e6" {
		t.Errorf("snapshot mutated by later Record: %q", snap[0].Name)
	}
}

func TestFlightRecorderDefaultsAndNilSafety(t *testing.T) {
	if got := NewFlightRecorder(0).Capacity(); got != defaultFlightRecorderCap {
		t.Errorf("default capacity = %d, want %d", got, defaultFlightRecorderCap)
	}
	var r *FlightRecorder
	r.Record(SpanRecord{Name: "x"}) // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Snapshot() != nil {
		t.Error("nil recorder must report empty state")
	}
}

func TestFlightRecordJSONLRoundTrip(t *testing.T) {
	recs := []SpanRecord{
		{Session: "or-1", Job: "j000001", ID: 3, Trace: 1, Name: "fem.solve", DurMS: 12.5,
			Attrs: map[string]any{"iterations": 17.0}},
		{Kind: "log", Session: "or-1", Parent: 3, Trace: 1, Level: "WARN", Name: "solver did not converge"},
		{Kind: "log", Level: "WARN", Name: "scan shed", Attrs: map[string]any{"reason": "queue full"}},
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(recs) {
		t.Fatalf("wrote %d lines, want %d", n, len(recs))
	}
	back, err := ReadSpans(&buf)
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
	if back[1].Kind != "log" || back[1].Level != "WARN" || back[1].Parent != 3 {
		t.Errorf("log record mangled: %+v", back[1])
	}
	if back[2].Name != "scan shed" || back[2].Attrs["reason"] != "queue full" {
		t.Errorf("log attrs mangled: %+v", back[2])
	}
}

// TestFlightSpanRecordStampsContextIdentity: a span ended under a
// recorder lands in the ring once, with the identity on its context and
// its attributes, started when the span started and lasting until End.
func TestFlightSpanRecordStampsContextIdentity(t *testing.T) {
	r := NewFlightRecorder(16)
	ctx := WithFlightRecorder(WithJobID(WithSessionID(context.Background(), "or-7"), "j000042"), r)
	_, span := StartSpan(ctx, SpanFEMSolve)
	span.SetAttr("iterations", 12)
	span.SetAttr("final_rel_residual", math.NaN())
	running := time.Now()
	span.End(nil)
	ended := time.Now()

	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("records = %d, want the one span", len(snap))
	}
	sp := snap[0]
	if sp.Kind != "" || sp.Name != SpanFEMSolve.String() || sp.ID != span.ID() || sp.Trace != span.TraceID() {
		t.Errorf("span record = %+v", sp)
	}
	if sp.Session != "or-7" || sp.Job != "j000042" {
		t.Errorf("span identity = session %q job %q, want or-7/j000042", sp.Session, sp.Job)
	}
	if sp.Attrs["iterations"] != 12 || sp.Attrs["final_rel_residual"] != "NaN" {
		t.Errorf("span attrs = %v, want iterations=12 and a stringified NaN", sp.Attrs)
	}
	end := sp.Start.Add(time.Duration(sp.DurMS * float64(time.Millisecond)))
	if sp.Start.After(running) || end.Before(running) || end.After(ended) {
		t.Errorf("span record covers %v..%v; want it to start before %v and end by %v", sp.Start, end, running, ended)
	}
}
