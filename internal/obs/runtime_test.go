package obs

import (
	"runtime"
	"strings"
	"testing"
)

func TestRuntimeCollectorSample(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	runtime.GC() // guarantee at least one GC cycle since the baseline
	c.Sample()

	if v := reg.Gauge(MetricRuntimeHeapBytes).Value(); v <= 0 {
		t.Errorf("%s = %v, want > 0", MetricRuntimeHeapBytes, v)
	}
	if v := reg.Gauge(MetricRuntimeGoroutines).Value(); v < 1 {
		t.Errorf("%s = %v, want >= 1", MetricRuntimeGoroutines, v)
	}
	if v := reg.Counter(MetricRuntimeGCCycles).Value(); v < 1 {
		t.Errorf("%s = %v, want >= 1 after an explicit runtime.GC", MetricRuntimeGCCycles, v)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, m := range []Metric{
		MetricRuntimeHeapBytes,
		MetricRuntimeGoroutines,
		MetricRuntimeGCCycles,
		MetricRuntimeGCPauseSeconds,
	} {
		if !strings.Contains(out, m.String()) {
			t.Errorf("exposition missing %s", m.String())
		}
	}
}

func TestRuntimeCollectorSampleIdempotentDelta(t *testing.T) {
	// Two samples with no GC in between must not recount old cycles:
	// the counter is fed from the NumGC delta, not the absolute value.
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	runtime.GC()
	c.Sample()
	v1 := reg.Counter(MetricRuntimeGCCycles).Value()
	c.Sample() // no GC since the last sample (none forced, at least)
	v2 := reg.Counter(MetricRuntimeGCCycles).Value()
	if v2-v1 > 2 {
		t.Errorf("GC cycles jumped %v -> %v without forced GCs; delta accounting broken", v1, v2)
	}
	runtime.GC()
	c.Sample()
	if v3 := reg.Counter(MetricRuntimeGCCycles).Value(); v3 <= v1 {
		t.Errorf("GC cycles = %v after another runtime.GC, want > %v", v3, v1)
	}
}

func TestRuntimeCollectorStaleSampleNoUnderflow(t *testing.T) {
	// Concurrent Samples read MemStats outside the collector lock, so a
	// sample holding an older NumGC can reach the lock after a newer one
	// already advanced lastNumGC. The stale sample must count zero new
	// cycles — not underflow the unsigned delta, replay 256 stale
	// pauses, and regress the baseline.
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mu.Lock()
	c.lastNumGC = ms.NumGC + 5 // as if a newer sample won the race
	c.mu.Unlock()

	before := reg.Counter(MetricRuntimeGCCycles).Value()
	c.Sample() // stale relative to the advanced baseline
	after := reg.Counter(MetricRuntimeGCCycles).Value()
	if after != before {
		t.Errorf("stale sample added %v GC cycles, want 0", after-before)
	}
	c.mu.Lock()
	last := c.lastNumGC
	c.mu.Unlock()
	if last < ms.NumGC+5 {
		t.Errorf("stale sample regressed lastNumGC to %v, want >= %v", last, ms.NumGC+5)
	}
	if h := reg.Histogram(MetricRuntimeGCPauseSeconds); h.Summary().Count > 0 {
		t.Errorf("stale sample observed %d pauses, want 0", h.Summary().Count)
	}
}

func TestRuntimeCollectorNilSafety(t *testing.T) {
	var c *RuntimeCollector
	c.Sample() // must not panic
}
