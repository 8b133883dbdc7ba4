// Package obs is the reproduction's dependency-light telemetry layer.
// The paper's headline claim is a wall-clock one — "real-time"
// volumetric brain-shift compensation, with a per-stage timeline
// (Figure 6) and a load-balance discussion around per-rank FEM assembly
// work — so sustaining it in a service setting is first an
// observability problem. This package provides the three primitives the
// rest of the system builds on:
//
//   - a metrics Registry of counters, gauges and fixed-bucket latency
//     histograms, rendered once, in the Prometheus text exposition
//     format (version 0.0.4), keyed by the Metric descriptors declared
//     once in names.go;
//   - hierarchical span tracing carried on context.Context; a finished
//     span is built once and handed to every Sink on the context (the
//     JSONL Tracer, the FlightRecorder, the StageSink — see trace.go);
//   - the StageSink, the one consumer of stage spans: a run's live
//     stage timeline plus the per-stage registry metrics.
//
// Everything here uses only the standard library; it must stay
// importable from the innermost numerical packages without creating
// dependency cycles.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Label is one metric label pair. Labels distinguish instruments within
// a metric family (e.g. the per-stage latency histograms all share the
// family name with different stage labels).
type Label struct {
	Key, Value string
}

// instrument is anything the registry can render.
type instrument interface {
	// write renders the instrument in Prometheus text format. labels is
	// the pre-rendered label body without braces ("" when unlabeled).
	// The buffered writer latches any write error for the registry's
	// final Flush, so instruments render unconditionally.
	write(w *bufio.Writer, name, labels string)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates d (negative deltas are ignored: counters only rise).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *Counter) write(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %v\n", name, braces(labels), c.Value())
}

// Gauge is a metric that can move in both directions.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// SetMax stores v only when it exceeds the current value — a
// high-water-mark gauge (e.g. the worst assembly imbalance seen).
func (g *Gauge) SetMax(v float64) {
	g.mu.Lock()
	if v > g.v {
		g.v = v
	}
	g.mu.Unlock()
}

// Add accumulates a delta.
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func (g *Gauge) write(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %v\n", name, braces(labels), g.Value())
}

// family groups every instrument sharing one metric name.
type family struct {
	typ  string // "counter" | "gauge" | "histogram"
	help string
	keys []string // instance keys in first-seen order
	inst map[string]instrument
}

// Registry holds named metric instruments and renders them in the
// Prometheus text exposition format. All methods are safe for
// concurrent use; instrument getters are get-or-create and idempotent,
// so call sites can re-resolve instruments by descriptor instead of
// threading handles around.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating if needed) the instrument of family m with
// the given labels, constructing new instances with mk. Asking for a
// family under a kind it was not declared with is a programming error
// and panics, as does the zero Metric.
func (r *Registry) lookup(m Metric, kind string, labels []Label, mk func() instrument) instrument {
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q declared as %q, used as %s", m.name, m.kind, kind))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[m.name]
	if !ok {
		f = &family{typ: kind, help: m.help, inst: make(map[string]instrument)}
		r.families[m.name] = f
	}
	in, ok := f.inst[key]
	if !ok {
		in = mk()
		f.inst[key] = in
		f.keys = append(f.keys, key)
	}
	return in
}

// Counter returns the counter of m with labels, creating it on first use.
func (r *Registry) Counter(m Metric, labels ...Label) *Counter {
	return r.lookup(m, "counter", labels, func() instrument { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge of m with labels, creating it on first use.
func (r *Registry) Gauge(m Metric, labels ...Label) *Gauge {
	return r.lookup(m, "gauge", labels, func() instrument { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram of m with labels, creating it over
// the descriptor's bucket bounds on first use.
func (r *Registry) Histogram(m Metric, labels ...Label) *Histogram {
	return r.lookup(m, "histogram", labels, func() instrument { return newHistogram(m.buckets) }).(*Histogram)
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4), families sorted by name.
// Rendering is buffered; the returned error is the first write error
// the underlying writer reported.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type entry struct {
		name  string
		f     *family
		keys  []string
		insts []instrument
	}
	entries := make([]entry, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		e := entry{name: n, f: f, keys: append([]string(nil), f.keys...)}
		for _, k := range e.keys {
			e.insts = append(e.insts, f.inst[k])
		}
		entries = append(entries, e)
	}
	r.mu.Unlock()
	// Instruments lock individually; rendering outside the registry lock
	// keeps a slow scrape from stalling metric updates. The bufio layer
	// latches the first write error for the final Flush.
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		if e.f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", e.name, e.f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.f.typ)
		for i, k := range e.keys {
			e.insts[i].write(bw, e.name, k)
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry — the /metrics
// endpoint — as Prometheus text (version 0.0.4), whatever the request's
// Accept header asks for.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// renderLabels renders labels as a Prometheus label body (no braces),
// sorted by key for a stable instance identity.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		// Go %q escaping coincides with the exposition format for label
		// values: backslash, quote and newline all come out escaped.
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// braces wraps a rendered label body, or returns "" for unlabeled
// instruments.
func braces(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// appendLabel splices an extra label pair into a pre-rendered body (for
// the histogram "le" label).
func appendLabel(labels, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}
