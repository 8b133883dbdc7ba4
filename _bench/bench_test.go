package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the functions must sort
	}
	return xs
}

// The median is always reported; the tail percentile only when at
// least ten samples lie beyond it.
func TestPercentileRule(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if _, ok := p90(seq(99)); ok {
		t.Error("p90 reported on 99 samples: only 9 lie beyond it")
	}
	got, ok := p90(seq(100))
	if !ok || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", got, ok)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4).
func TestQuartileSpread(t *testing.T) {
	// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, ok := quartileSpread(seq(10)); !ok || !near(got, 1) {
		t.Errorf("spread of 1..10 = %v, %v; want 1, true", got, ok)
	}
	// quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
	if got, ok := quartileSpread([]float64{12, 10, 13, 11}); !ok || !near(got, 2.5/11.5) {
		t.Errorf("spread of 10..13 = %v, %v; want %v, true", got, ok, 2.5/11.5)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("spread reported on one value")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100e6},
		{ID: 2, Parent: 1, StartNS: 10e6, EndNS: 40e6},
		{ID: 3, Parent: 1, StartNS: 30e6, EndNS: 60e6}, // overlaps span 2: counted once
		{ID: 4, Parent: 2, StartNS: 15e6, EndNS: 20e6},
	}
	want := map[int]float64{1: 50, 2: 25, 3: 30, 4: 5}
	for id, got := range selfTimesMS(spans) {
		if !near(got, want[id]) {
			t.Errorf("self time of span %d = %v ms, want %v", id, got, want[id])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder("w")
	rec.run("outer", func() {
		rec.run("inner", func() {})
		rec.run("inner", func() {})
	})
	rec.run("next", func() {})
	var parents []int
	for _, s := range rec.spans {
		parents = append(parents, s.Parent)
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if got := fmt.Sprint(parents); got != "[0 1 1 0]" {
		t.Errorf("parents = %s, want [0 1 1 0]", got)
	}
	if n := len(durationsMS(rec.spans)["inner"]); n != 2 {
		t.Errorf("%d durations for inner, want 2", n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "scan_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "scans_per_min", Unit: "1/min", Better: "higher", Bound: 0.10}
	failed := metricSpec{Name: "failed_frac", Unit: "frac", Better: "lower", Bound: 0}
	steady := []float64{100, 101, 99, 100}
	cases := []struct {
		name     string
		ms       metricSpec
		a, b     []float64
		verdict  string
		inChange string
	}{
		{"slower beyond the bound", lower, steady, []float64{120, 121, 119, 120}, verdictWorse, "worse by 20.0%"},
		{"slower within the bound", lower, steady, []float64{105, 106, 104, 105}, verdictOK, "worse by 5.0%"},
		{"faster", lower, steady, []float64{80, 81, 79, 80}, verdictOK, "better by 20.0%"},
		{"throughput shrinking reads as worse", higher, steady, []float64{80, 81, 79, 80}, verdictWorse, "worse by 20.0%"},
		{"throughput growing reads as better", higher, steady, []float64{120, 121, 119, 120}, verdictOK, "better by 20.0%"},
		{"one side too noisy to tell", lower, []float64{100, 150, 60, 130}, []float64{120, 121, 119, 120}, verdictUnresolved, ""},
		{"single runs have no spread", lower, []float64{100}, []float64{120}, verdictWorse, "worse by 20.0%"},
		{"any new failure is a regression", failed, []float64{0, 0, 0, 0}, []float64{0.1, 0.1, 0, 0.1}, verdictWorse, "worse by 0.1 frac"},
		{"no failures on either side", failed, []float64{0, 0}, []float64{0, 0}, verdictOK, ""},
	}
	for _, c := range cases {
		j := judge(c.ms, c.a, c.b)
		if j.verdict != c.verdict || !strings.Contains(j.change, c.inChange) {
			t.Errorf("%s: verdict %q, change %q; want %q, %q", c.name, j.verdict, j.change, c.verdict, c.inChange)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50 float64) string {
		var f resultFile
		for _, w := range spec.Workloads {
			f.Runs = append(f.Runs, record{options: options{Workload: w.Name}, Values: map[string]float64{"scan_ms_p50": p50}})
		}
		buf, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 100), write("b.json", 101), write("c.json", 200)
	var out bytes.Buffer
	if breach, err := compareFiles(&out, spec, base, same); err != nil || breach {
		t.Errorf("equal files: breach=%v err=%v\n%s", breach, err, out.String())
	}
	if n := strings.Count(out.String(), "scan_ms_p50"); n != len(spec.Workloads) {
		t.Errorf("%d rows for scan_ms_p50, want one per workload:\n%s", n, out.String())
	}
	if breach, err := compareFiles(&out, spec, base, slow); err != nil || !breach {
		t.Errorf("twice as slow: breach=%v err=%v", breach, err)
	}
}

// TestSmoke runs every workload end to end on a small phantom, and one
// of them traced, so that drift in a layer's public API, in the output
// checks or between the replay and the pipeline fails fast: the traced
// run exercises the replay-divergence and unattributed-time gates.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	smoke := func(workload string, trace int) {
		o := options{Workload: workload, Seed: 1, Seconds: 1, Trace: trace, Size: 24,
			outDir: out, spans: filepath.Join(out, "trace.jsonl")}
		rec, err := run(o)
		if err != nil {
			t.Fatalf("%s trace=%d: %v", workload, trace, err)
		}
		if rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s trace=%d: %d of %d scans failed: %v", workload, trace, rec.Failed, rec.Attempted, rec.Violations)
		}
		if _, err := contractLine(spec, rec); err != nil {
			t.Errorf("%s trace=%d: %v", workload, trace, err)
		}
	}
	for _, w := range spec.Workloads {
		smoke(w.Name, 0)
	}
	smoke("stream-77k", 1)
	smoke(replayWorkload, 1)
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	buf, err := os.ReadFile(filepath.Join(out, "trace.jsonl"))
	if err != nil || !bytes.Contains(buf, []byte(`"name":"fem.assemble"`)) {
		t.Errorf("trace.jsonl has no fem.assemble span (err %v)", err)
	}
}
