package obs

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestSpanRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, SpanName{"root"})
	cctx, child := StartSpan(ctx, SpanName{"child"})
	_, grand := StartSpan(cctx, SpanName{"grandchild"})
	grand.SetAttr("n", 3)
	grand.End(nil)
	child.End(errors.New("boom"))
	root.SetAttr("done", true)
	root.End(nil)

	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	r, c, g := byName["root"], byName["child"], byName["grandchild"]
	if r.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r.Parent)
	}
	if c.Parent != r.ID || g.Parent != c.ID {
		t.Errorf("hierarchy broken: root=%d child(parent=%d) grandchild(parent=%d)",
			r.ID, c.Parent, g.Parent)
	}
	if c.Err != "boom" {
		t.Errorf("child err = %q", c.Err)
	}
	if g.Attrs["n"] != float64(3) { // JSON numbers decode as float64
		t.Errorf("grandchild attrs = %v", g.Attrs)
	}
	if r.Attrs["done"] != true {
		t.Errorf("root attrs = %v", r.Attrs)
	}
	for _, rec := range recs {
		if rec.DurMS < 0 {
			t.Errorf("span %q negative duration %v", rec.Name, rec.DurMS)
		}
	}
}

func TestSpanNilSafety(t *testing.T) {
	// No tracer on the context: StartSpan returns a nil span whose
	// methods are all no-ops, so instrumented code needs no guards.
	ctx, span := StartSpan(context.Background(), SpanName{"anything"})
	if span != nil {
		t.Fatal("span without tracer should be nil")
	}
	span.SetAttr("k", "v") // must not panic
	span.End(nil)
	span.End(errors.New("x"))
	if s := SpanFromContext(ctx); s != nil {
		t.Error("nil span leaked into the context")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	var buf bytes.Buffer
	ctx := WithTracer(context.Background(), NewTracer(&buf))
	_, s := StartSpan(ctx, SpanName{"once"})
	s.End(nil)
	s.End(errors.New("late"))
	recs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != "" {
		t.Errorf("records = %+v, want one clean record", recs)
	}
}

func TestSpanNonFiniteAttrs(t *testing.T) {
	// NaN/Inf attrs (e.g. the NaN residual of an aborted solve) must not
	// poison the JSONL stream.
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, SpanName{"solve"})
	s.SetAttr("nan", math.NaN())
	s.SetAttr("inf", math.Inf(1))
	s.End(nil)
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer failed on non-finite attrs: %v", err)
	}
	recs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Attrs["nan"] != "NaN" || recs[0].Attrs["inf"] != "+Inf" {
		t.Errorf("attrs = %v, want stringified non-finite values", recs[0].Attrs)
	}
}

func TestTracerErrPropagates(t *testing.T) {
	tr := NewTracer(failWriter{})
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, SpanName{"doomed"})
	s.End(nil)
	if tr.Err() == nil {
		t.Error("write failure not surfaced by Err")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestReadSpansRejectsGarbage(t *testing.T) {
	for _, in := range []string{"{\"name\":\"ok\"}\nnot json\n", "{\"kind\":\"log\"}\nnot json\n"} {
		if _, err := ReadSpans(strings.NewReader(in)); err == nil {
			t.Errorf("garbage line after %q parsed without error", in[:strings.Index(in, "\n")])
		}
	}
}
