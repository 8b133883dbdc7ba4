package obs

import (
	"bufio"
	"math"
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
	g.SetMax(2) // below current: ignored
	g.SetMax(9)
	if v := g.Value(); v != 9 {
		t.Errorf("gauge = %v, want 9", v)
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

func TestHistogramQuantilesUniform(t *testing.T) {
	// 100 observations 1..100 against decade buckets: with linear
	// interpolation inside the rank bucket every quantile is exact.
	h := newHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	s := h.Summary()
	if s.Count != 100 || s.Sum != 5050 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 50 || s.P90 != 90 || s.P99 != 99 {
		t.Errorf("summary quantiles = %+v", s)
	}
}

func TestHistogramQuantilesSkewed(t *testing.T) {
	// 90 fast observations and 10 slow ones: the p50 stays in the fast
	// bucket, the p99 lands in the slow one, and everything is clamped
	// to the observed range even in the open overflow bucket.
	h := newHistogram([]float64{1, 10})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // overflow bucket (10, +Inf)
	}
	if p50 := h.Quantile(0.5); p50 < 0.5 || p50 > 1 {
		t.Errorf("p50 = %v, want within fast bucket [0.5, 1]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 10 || p99 > 50 {
		t.Errorf("p99 = %v, want within (10, max=50]", p99)
	}
	if p := h.Quantile(0.9999); p > 50 {
		t.Errorf("extreme quantile %v escapes observed max 50", p)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := newHistogram(nil) // DefaultLatencyBuckets
	h.Observe(0.042)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0.042 {
			t.Errorf("Quantile(%v) = %v, want the single observation", q, got)
		}
	}
	if got := newHistogram(nil).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
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
	h.write(bw, "m", "", false)
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
