package obs

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"sync"
)

// DefaultLatencyBuckets spans the stage-latency range the paper's
// Figure 6 timeline covers — sub-millisecond resampling steps up to
// minute-scale solves — with roughly logarithmic spacing (seconds).
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram. Observations are counted into
// the first bucket whose upper bound is >= the value (Prometheus "le"
// semantics), with an implicit +Inf overflow bucket, and summed. All
// methods are safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the overflow bucket
	sum    float64
	count  uint64
}

// newHistogram builds a histogram over the given upper bounds (nil
// means DefaultLatencyBuckets). Bounds are copied, sorted and
// de-duplicated.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if i > 0 && len(uniq) > 0 && b == uniq[len(uniq)-1] {
			continue
		}
		uniq = append(uniq, b)
	}
	return &Histogram{
		bounds: uniq,
		counts: make([]uint64, len(uniq)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistSummary is a point-in-time digest of a histogram: the _count and
// _sum series of its exposition.
type HistSummary struct {
	Count uint64
	Sum   float64
}

// Summary reads count and sum under one lock.
func (h *Histogram) Summary() HistSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSummary{Count: h.count, Sum: h.sum}
}

// write renders the histogram in Prometheus text format: cumulative
// _bucket series, then _sum and _count.
func (h *Histogram) write(w *bufio.Writer, name, labels string) {
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	cum := uint64(0)
	for i, b := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, appendLabel(labels, "le", fmt.Sprintf("%g", b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, appendLabel(labels, "le", "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %v\n", name, braces(labels), sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braces(labels), count)
}
