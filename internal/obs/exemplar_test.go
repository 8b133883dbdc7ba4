package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHistogramExemplarRenderingOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(histogram("brainsim_scan_seconds", "scan latency", []float64{1, 10}))
	h.Observe(0.5)
	h.ObserveExemplar(5, "trace_id", "j000042")
	h.ObserveExemplar(100, "trace_id", "j000043")

	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The 0.5 observation set no exemplar: its bucket line must stay
	// plain.
	if !strings.Contains(out, `le="1"} 1`) || strings.Contains(out, `le="1"} 1 #`) {
		t.Errorf("le=1 bucket should have no exemplar:\n%s", out)
	}
	// The 5 and 100 observations annotate their buckets, including +Inf.
	if !strings.Contains(out, `le="10"} 2 # {trace_id="j000042"} 5`) {
		t.Errorf("le=10 bucket missing its exemplar:\n%s", out)
	}
	if !strings.Contains(out, `le="+Inf"} 3 # {trace_id="j000043"} 100`) {
		t.Errorf("+Inf bucket missing its exemplar:\n%s", out)
	}
	// OpenMetrics expositions must end with the EOF trailer.
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics exposition missing # EOF trailer:\n%s", out)
	}
}

func TestHistogramExemplarNewestWins(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(histogram("brainsim_scan_seconds", "", []float64{10}))
	h.ObserveExemplar(3, "trace_id", "j000001")
	h.ObserveExemplar(4, "trace_id", "j000002")
	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `{trace_id="j000002"} 4`) {
		t.Errorf("newest exemplar should win:\n%s", out)
	}
	if strings.Contains(out, "j000001") {
		t.Errorf("stale exemplar retained:\n%s", out)
	}
}

func TestPrometheusTextFormatHasNoExemplars(t *testing.T) {
	// The 0.0.4 text format has no exemplar syntax — a conforming
	// scraper fails the whole scrape on a '#' after the value — so
	// WritePrometheus must render exemplar-annotated histograms plain.
	reg := NewRegistry()
	h := reg.Histogram(histogram("brainsim_scan_seconds", "scan latency", []float64{1, 10}))
	h.ObserveExemplar(5, "trace_id", "j000042")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			continue // HELP/TYPE metadata
		}
		if strings.Contains(line, "#") {
			t.Errorf("0.0.4 sample line carries exemplar syntax: %s", line)
		}
	}
	if strings.Contains(b.String(), "# EOF") {
		t.Errorf("0.0.4 exposition must not carry the OpenMetrics EOF trailer:\n%s", b.String())
	}
}

func TestHistogramWithoutExemplarsUnchanged(t *testing.T) {
	// Plain Observe must keep the exposition byte-identical to the
	// pre-exemplar format: no stray " #" anywhere.
	reg := NewRegistry()
	h := reg.Histogram(histogram("brainsim_scan_seconds", "", []float64{1, 10}))
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "#") && strings.Contains(b.String(), "} # ") {
		t.Errorf("plain histogram grew exemplar syntax:\n%s", b.String())
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "_bucket") && strings.Contains(line, " # ") {
			t.Errorf("bucket line has exemplar syntax without an exemplar: %s", line)
		}
	}
}

func TestOpenMetricsCounterMetadataName(t *testing.T) {
	// OpenMetrics announces a counter under its metadata name — the
	// sample name without the mandatory _total suffix.
	reg := NewRegistry()
	reg.Counter(MetricScans).Inc()
	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE brainsim_scans counter\n") {
		t.Errorf("OpenMetrics TYPE line should drop _total:\n%s", out)
	}
	if !strings.Contains(out, "brainsim_scans_total 1\n") {
		t.Errorf("OpenMetrics sample line should keep _total:\n%s", out)
	}

	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE brainsim_scans_total counter\n") {
		t.Errorf("0.0.4 TYPE line should keep the full sample name:\n%s", b.String())
	}
}

func TestMetricsHandlerContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(histogram("brainsim_scan_seconds", "scan latency", []float64{1, 10})).
		ObserveExemplar(5, "trace_id", "j000042")
	h := reg.Handler()

	// Default (no Accept): plain 0.0.4 text, no exemplars, no EOF.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Errorf("default scrape Content-Type = %q", ct)
	}
	if body := rec.Body.String(); strings.Contains(body, "j000042") || strings.Contains(body, "# EOF") {
		t.Errorf("0.0.4 scrape leaked OpenMetrics syntax:\n%s", body)
	}

	// A Prometheus-style Accept list that includes OpenMetrics opts in.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0; q=0.5, text/plain; version=0.0.4; q=0.4")
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Errorf("OpenMetrics scrape Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `# {trace_id="j000042"} 5`) {
		t.Errorf("OpenMetrics scrape missing exemplar:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics scrape missing # EOF trailer:\n%s", body)
	}
}
