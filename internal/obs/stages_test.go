package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// logSink appends "tag:event:name" strings to a shared log and keeps
// the finished spans it was handed.
type logSink struct {
	tag  string
	log  *[]string
	done []FinishedSpan
}

func (s *logSink) SpanStarted(i SpanInfo) { *s.log = append(*s.log, s.tag+":start:"+i.Name) }
func (s *logSink) SpanEnded(f FinishedSpan) {
	*s.log = append(*s.log, fmt.Sprintf("%s:end:%s:%v", s.tag, f.Name, f.Err))
	s.done = append(s.done, f)
}

// TestSinksFireInAttachOrder pins the seam's fan-out: every sink on the
// context hears each span start and is handed the one finished value,
// in the order the sinks were attached; nil sinks are ignored.
func TestSinksFireInAttachOrder(t *testing.T) {
	var log []string
	a, b := &logSink{tag: "a", log: &log}, &logSink{tag: "b", log: &log}
	ctx := WithSink(WithTracer(WithSink(WithFlightRecorder(
		WithSink(context.Background(), a), nil), nil), nil), b)

	failure := errors.New("x")
	_, s := StartSpan(ctx, SpanName{"s"})
	s.SetAttr("k", 1)
	s.End(failure)

	want := []string{"a:start:s", "b:start:s", "a:end:s:x", "b:end:s:x"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v (sinks must fire in attach order)", log, want)
	}
	fa, fb := a.done[0], b.done[0]
	if fa.Dur != fb.Dur || fa.ID != fb.ID || fa.Err != failure || fb.Attrs["k"] != 1 {
		t.Errorf("sinks were handed different finished spans: %+v vs %+v", fa, fb)
	}
}

// TestStageStatesItsDurationOnce: the duration Stage returns is the one
// every sink reports — the trace line, the flight record and the stage
// sink's timeline and histogram — not a second clock reading.
func TestStageStatesItsDurationOnce(t *testing.T) {
	var buf bytes.Buffer
	reg, fr := NewRegistry(), NewFlightRecorder(8)
	sink := NewStageSink(reg)
	ctx := WithSink(WithFlightRecorder(WithTracer(context.Background(), NewTracer(&buf)), fr), sink)

	failure := errors.New("boom")
	elapsed, err := Stage(ctx, "solve", func(ctx context.Context) error {
		if ev := sink.Events(); len(ev) != 1 || ev[0].Done || ev[0].Stage != "solve" {
			t.Errorf("running stage not on the live timeline: %+v", ev)
		}
		_, child := StartSpan(ctx, SpanFEMSolve) // not a stage: the sink ignores it
		child.End(nil)
		time.Sleep(time.Millisecond)
		return failure
	})
	if err != failure || elapsed < time.Millisecond {
		t.Fatalf("Stage = %v, %v; want >= 1ms and the body's error", elapsed, err)
	}
	ms := float64(elapsed) / float64(time.Millisecond)

	spans, rerr := ReadSpans(&buf)
	if rerr != nil || len(spans) != 2 {
		t.Fatalf("trace = %+v, %v; want the child and the stage", spans, rerr)
	}
	if st := spans[1]; st.Name != "solve" || st.DurMS != ms || st.Err != "boom" || st.Attrs["kind"] != "stage" {
		t.Errorf("trace record = %+v, want dur_ms %v", st, ms)
	}
	recs := fr.Snapshot()
	if last := recs[len(recs)-1]; last.Name != "solve" || last.DurMS != ms || last.ID != spans[1].ID {
		t.Errorf("flight record = %+v, want dur_ms %v and span id %d", last, ms, spans[1].ID)
	}
	ev := sink.Events()
	if len(ev) != 1 || !ev[0].Done || ev[0].Elapsed != elapsed || ev[0].Err != failure {
		t.Errorf("timeline = %+v, want one finished stage of %v", ev, elapsed)
	}
	stage := Label{Key: "stage", Value: "solve"}
	if h := reg.Histogram(MetricStageSeconds, stage).Summary(); h.Count != 1 || h.Sum != elapsed.Seconds() {
		t.Errorf("stage histogram = %+v, want one observation of %v", h, elapsed.Seconds())
	}
	if v := reg.Counter(MetricStageErrors, stage).Value(); v != 1 {
		t.Errorf("stage errors = %v, want 1", v)
	}
}

// TestStageWithoutSinkStillTimes: with nothing on the context Stage
// allocates no span but still runs and times the body, and a panicking
// body still closes its span on the way out.
func TestStageWithoutSinkStillTimes(t *testing.T) {
	elapsed, err := Stage(context.Background(), "bare", func(ctx context.Context) error {
		if SpanFromContext(ctx) != nil {
			t.Error("a span was created without a sink")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || elapsed < time.Millisecond {
		t.Errorf("Stage = %v, %v", elapsed, err)
	}

	var log []string
	ctx := WithSink(context.Background(), &logSink{tag: "a", log: &log})
	func() {
		defer func() { _ = recover() }()
		_, _ = Stage(ctx, "doomed", func(context.Context) error { panic("stage body") })
	}()
	if len(log) != 2 || log[1] != "a:end:doomed:<nil>" {
		t.Errorf("log = %v, want the span closed despite the panic", log)
	}
}
