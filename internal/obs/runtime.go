package obs

import (
	"runtime"
	"sync"
)

// RuntimeCollector samples Go runtime health — heap, goroutines, GC
// cycles and pause times — into a Registry. A real-time solve that
// suddenly misses its budget with healthy solver telemetry usually
// means the runtime, not the numerics: a GC pause inside the solve
// window or a goroutine leak in the worker pool, which these series
// expose. The service samples once per /metrics scrape; Sample is safe
// for concurrent use, so overlapping scrapes are fine.
type RuntimeCollector struct {
	reg *Registry

	mu        sync.Mutex
	lastNumGC uint32
}

// NewRuntimeCollector returns a collector publishing into reg.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	c := &RuntimeCollector{reg: reg}
	// Baseline the GC cycle count so the first Sample doesn't replay
	// every pause since process start into the histogram.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.lastNumGC = ms.NumGC
	return c
}

// Sample takes one snapshot of the runtime and publishes it. New GC
// pauses since the previous Sample are each observed into the pause
// histogram (the runtime keeps the last 256 pauses; sampling slower
// than 256 GC cycles loses the overflow, which the cycle counter still
// accounts for in aggregate).
func (c *RuntimeCollector) Sample() {
	if c == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	goroutines := runtime.NumGoroutine()

	// Concurrent Samples read MemStats outside the lock, so a snapshot
	// with a newer NumGC can acquire the lock first; the stale snapshot
	// must then count zero new cycles and must not regress lastNumGC
	// (an unsigned prev-ahead subtraction would underflow and replay 256
	// stale pauses).
	c.mu.Lock()
	var newGC uint32
	if ms.NumGC > c.lastNumGC {
		newGC = ms.NumGC - c.lastNumGC
		c.lastNumGC = ms.NumGC
	}
	c.mu.Unlock()

	if newGC > uint32(len(ms.PauseNs)) {
		newGC = uint32(len(ms.PauseNs))
	}

	// Publish after releasing our own mutex — instrument locks and the
	// collector lock never nest.
	c.reg.Gauge(MetricRuntimeHeapBytes).Set(float64(ms.HeapAlloc))
	c.reg.Gauge(MetricRuntimeGoroutines).Set(float64(goroutines))
	c.reg.Counter(MetricRuntimeGCCycles).Add(float64(newGC))
	if newGC > 0 {
		h := c.reg.Histogram(MetricRuntimeGCPauseSeconds)
		for i := uint32(0); i < newGC; i++ {
			// PauseNs is a circular buffer indexed by cycle number.
			pause := ms.PauseNs[(ms.NumGC-1-i)%uint32(len(ms.PauseNs))]
			h.Observe(float64(pause) / 1e9)
		}
	}
}
