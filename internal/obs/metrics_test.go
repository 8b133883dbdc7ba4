package obs

import (
	"bufio"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(counter("c_total", "help"))
	c.Inc()
	c.Add(2.5)
	c.Add(-7) // counters only rise
	if v := c.Value(); v != 3.5 {
		t.Errorf("counter = %v, want 3.5", v)
	}
	if again := r.Counter(counter("c_total", "help")); again != c {
		t.Error("counter lookup not idempotent")
	}
	g := r.Gauge(gauge("g", "help"))
	g.Set(4)
	g.Add(-1)
	if v := g.Value(); v != 3 {
		t.Errorf("gauge = %v, want 3", v)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("asking for a counter descriptor as a gauge did not panic")
		}
	}()
	r.Gauge(counter("m", ""))
}

func TestHistogramSingleValue(t *testing.T) {
	h := newHistogram(nil) // DefaultLatencyBuckets
	if s := h.Summary(); s != (HistSummary{}) {
		t.Errorf("empty histogram summary = %+v, want zero", s)
	}
	h.Observe(0.042)
	h.Observe(math.NaN()) // dropped: a NaN would poison the sum
	if s := h.Summary(); s.Count != 1 || s.Sum != 0.042 {
		t.Errorf("summary = %+v, want the single observation", s)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// Prometheus "le" semantics: a value exactly on a bound counts into
	// that bound's bucket.
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	var b strings.Builder
	bw := bufio.NewWriter(&b)
	h.write(bw, "m", "")
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`m_bucket{le="1"} 1`,
		`m_bucket{le="2"} 2`, // cumulative
		`m_bucket{le="+Inf"} 3`,
		"m_sum 6",
		"m_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(counter("zz_total", "last alphabetically")).Inc()
	r.Counter(counter("aa_total", "first alphabetically"),
		Label{Key: "stage", Value: `tricky "quoted"` + "\nnewline"}).Add(2)
	r.Histogram(histogram("hist_seconds", "a histogram", []float64{1})).Observe(0.5)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Error("families not sorted by name")
	}
	for _, want := range []string{
		"# HELP aa_total first alphabetically",
		"# TYPE aa_total counter",
		`aa_total{stage="tricky \"quoted\"\nnewline"} 2`,
		"# TYPE hist_seconds histogram",
		`hist_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	// Run with -race: concurrent get-or-create, updates and scrapes.
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter(counter("ops_total", "")).Inc()
				r.Gauge(gauge("depth", "")).Set(float64(i))
				r.Histogram(histogram("lat_seconds", "", nil),
					Label{Key: "w", Value: string(rune('a' + w%4))}).Observe(float64(i) / 100)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		r.WritePrometheus(&b)
	}
	wg.Wait()
	if v := r.Counter(counter("ops_total", "")).Value(); v != 8*200 {
		t.Errorf("ops_total = %v, want %d", v, 8*200)
	}
}

// TestPrometheusTextFormatHasNoExemplars: the 0.0.4 grammar allows at
// most a timestamp after a sample value — a conforming scraper fails the
// whole scrape on a '#' there — and has no EOF trailer.
func TestPrometheusTextFormatHasNoExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(histogram("brainsim_scan_seconds", "scan latency", []float64{1, 10}))
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.Contains(line, "#") {
			t.Errorf("0.0.4 line carries non-sample syntax: %s", line)
		}
	}
}

// TestHistogramWithoutExemplarsUnchanged pins a plain histogram's
// exposition byte for byte: cumulative buckets, then _sum and _count,
// with nothing after a sample value.
func TestHistogramWithoutExemplarsUnchanged(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(histogram("brainsim_scan_seconds", "", []float64{1, 10}))
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE brainsim_scan_seconds histogram\n" +
		"brainsim_scan_seconds_bucket{le=\"1\"} 1\n" +
		"brainsim_scan_seconds_bucket{le=\"10\"} 2\n" +
		"brainsim_scan_seconds_bucket{le=\"+Inf\"} 3\n" +
		"brainsim_scan_seconds_sum 55.5\n" +
		"brainsim_scan_seconds_count 3\n"
	if got := b.String(); got != want {
		t.Errorf("plain histogram exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestOpenMetricsCounterMetadataName: the 0.0.4 exposition announces a
// counter under its full sample name, _total included — never under the
// OpenMetrics metadata name with the suffix dropped.
func TestOpenMetricsCounterMetadataName(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricScans).Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE brainsim_scans_total counter\n") {
		t.Errorf("0.0.4 TYPE line should keep the full sample name:\n%s", out)
	}
	if strings.Contains(out, "# TYPE brainsim_scans counter\n") {
		t.Errorf("0.0.4 TYPE line dropped _total:\n%s", out)
	}
	if !strings.Contains(out, "brainsim_scans_total 1\n") {
		t.Errorf("sample line should keep _total:\n%s", out)
	}
}

// TestMetricsHandlerContentNegotiation: /metrics has one exposition.
// A scraper asking for OpenMetrics first still gets 0.0.4 text, which
// every Prometheus scraper accepts.
func TestMetricsHandlerContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricScans).Inc()
	for _, accept := range []string{"", "application/openmetrics-text; version=1.0.0; q=0.5, text/plain; version=0.0.4; q=0.4"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/metrics", nil)
		req.Header.Set("Accept", accept)
		reg.Handler().ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("Accept %q: Content-Type = %q", accept, ct)
		}
		if body := rec.Body.String(); !strings.Contains(body, "# TYPE brainsim_scans_total counter\nbrainsim_scans_total 1\n") ||
			strings.Contains(body, "# EOF") {
			t.Errorf("Accept %q: body is not the 0.0.4 exposition:\n%s", accept, body)
		}
	}
}
