// Command _bench is the repository's benchmark: four closed-loop
// workloads on a paper-scale problem (76,041 equations), the end-to-end
// metrics a user of the system would see, output checks on every scan,
// and a traced run that replays one registration and one update layer by
// layer. BENCHMARK.json at the repository root names the workloads and
// metrics with their units, directions and bounds; this program reads
// them from there. README.md has the definitions.
//
//	go run ./_bench -workload cold-77k -seed 1 -seconds 12 -trace 0   one run; the last line of output is its result
//	go run ./_bench                                                   every workload, each in a child process; writes _bench/out/results.json
//	go run ./_bench -trace 1                                          the traced run; writes _bench/out/layers.json and trace.jsonl
//	go run ./_bench -compare a.json b.json                            two result files against the bounds
//
// The directory name starts with an underscore so that ./... patterns,
// simlint and perfgate do not see the package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
)

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program uses.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// ledgerOnly are the end-to-end metrics the full run reports beside
// those of BENCHMARK.json. They cannot be listed there: the tail
// percentile exists only on a run of 100 scans or more, and the failed
// share is 0 on every healthy run.
var ledgerOnly = []metricSpec{
	{Name: "scan_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "failed_frac", Unit: "frac", Better: "lower", Bound: 0},
}

// loadSpec reads BENCHMARK.json from the working directory or, for
// go test, its parent.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		buf, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		spec := &benchSpec{}
		if err := json.Unmarshal(buf, spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return spec, nil
	}
	return nil, lastErr
}

func (s *benchSpec) endToEnd() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), ledgerOnly...)
}

// metric is a measured value with the unit BENCHMARK.json gives it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the arguments of one run.
type options struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Size     int    `json:"size"`
	outDir   string
	spans    string
}

// record is everything one run measured. The second-to-last line of a
// run's output is its record; the last line is the part of it the
// benchmark contract asks for.
type record struct {
	options
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// RoundsPerMin is each round's throughput: how far apart they lie
	// shows how much the host's load changed during the run.
	RoundsPerMin []float64          `json:"rounds_per_min,omitempty"`
	Values       map[string]float64 `json:"values"`
}

// roundsPerRun is the number of rounds of an untraced run. Each round
// sets the workload up and then takes timed samples for a third of the
// run's time; setup_s is the median over the rounds, and the latency and
// throughput metrics come from the quietest round, the one with the
// highest throughput. Other tenants of a shared host slow the program by
// up to a third for 10 to 30 seconds at a time and never speed it up;
// rounds several seconds apart rarely all fall into such a phase.
const roundsPerRun = 3

// replayWorkload names the run that only replays the layers: the traced
// run uses it at size 66 for the 253k-equation rows.
const replayWorkload = "replay"

// round is the timed part of one round: its scans and the wall time
// from the first scan handed in to the last result.
type round struct {
	scans  []scan
	window time.Duration
}

// throughput is the round's correct scans per minute.
func (r round) throughput() float64 {
	ok := 0
	for _, s := range r.scans {
		if !s.failed() {
			ok++
		}
	}
	return float64(ok) / r.window.Minutes()
}

// allocation sums the runtime's allocation counters over the timed
// parts of a run.
type allocation struct {
	bytes, gcCycles, gcPauseNS uint64
}

// run executes one workload once.
func run(o options) (*record, error) {
	rec := &record{options: o, Values: make(map[string]float64)}
	d := time.Duration(o.Seconds) * time.Second
	if o.Workload == replayWorkload && o.Trace != 1 {
		return nil, fmt.Errorf("workload %q needs -trace 1", replayWorkload)
	}
	if o.Workload != replayWorkload {
		setup, ok := workloads[o.Workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", o.Workload)
		}
		// A traced run reports neither set-up time nor the bounded
		// metrics: it takes one round, a third of its time long, and
		// spends the rest on the replay.
		d /= roundsPerRun
		nRounds := roundsPerRun
		if o.Trace == 1 {
			nRounds = 1
		}
		var (
			rounds []round
			setups []float64
			all    []scan
			alloc  allocation
			stats  artifact.Stats
		)
		for i := 0; i < nRounds; i++ {
			t0 := time.Now()
			w, err := setup(o.Size, o.Seed)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			scans, window := w.run(d)
			runtime.ReadMemStats(&after)
			alloc.bytes += after.TotalAlloc - before.TotalAlloc
			alloc.gcCycles += uint64(after.NumGC - before.NumGC)
			alloc.gcPauseNS += after.PauseTotalNs - before.PauseTotalNs
			if w.store != nil {
				stats = w.store.Stats() // every round fills a store of its own alike
			}
			if w.close != nil {
				w.close()
			}
			rounds = append(rounds, round{scans, window})
			rec.RoundsPerMin = append(rec.RoundsPerMin, rounds[i].throughput())
			all = append(all, scans...)
		}
		rec.Attempted = len(all)
		for i, s := range all {
			if s.failed() {
				rec.Failed++
				for _, v := range s.Violations {
					rec.Violations = append(rec.Violations, fmt.Sprintf("%s sample %d: %s", o.Workload, i, v))
				}
			}
		}
		if rec.Failed == len(all) {
			return nil, fmt.Errorf("every scan failed its checks:\n%s", strings.Join(rec.Violations, "\n"))
		}
		endToEnd(rec.Values, rounds, setups)
		layersFromScans(rec.Values, all, stats, alloc)
	}
	if o.Trace == 1 {
		layers, spans, err := replayLayers(o.Workload, o.Size, o.Seed, time.Duration(o.Seconds)*time.Second-d, o.outDir)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			rec.Values[k] = v
		}
		if o.spans != "" {
			if err := appendSpans(o.spans, spans); err != nil {
				return nil, err
			}
		}
		if rec.Attempted == 0 {
			rec.Attempted = 1 // the replayed registration
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rec.Values["peak_rss_mb"] = rss
	return rec, nil
}

func appendSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accuracyMaxIdx is the last scan of a case whose displacement error
// enters disp_rms_err_mm. The error grows with the shift, so a metric
// over every scan of a run would move with the number of updates the run
// got through; every round of every workload reaches this scan.
const accuracyMaxIdx = 8

// endToEnd computes the metrics a user of the system would see.
func endToEnd(v map[string]float64, rounds []round, setups []float64) {
	quietest := rounds[0]
	var all, rms []float64
	scans, failed := 0, 0
	for _, r := range rounds {
		if r.throughput() > quietest.throughput() {
			quietest = r
		}
		for _, s := range r.scans {
			scans++
			if s.failed() {
				failed++
				continue
			}
			all = append(all, s.MS)
			if s.Idx <= accuracyMaxIdx {
				rms = append(rms, s.RMSErrMM)
			}
		}
	}
	var lat []float64
	for _, s := range quietest.scans {
		if !s.failed() {
			lat = append(lat, s.MS)
		}
	}
	v["setup_s"] = median(setups)
	v["scan_ms_p50"] = median(lat)
	// The tail is about every scan of the run, slow phases included.
	if p, ok := p90(all); ok {
		v["scan_ms_p90"] = p
	}
	v["scans_per_min"] = quietest.throughput()
	v["disp_rms_err_mm"] = median(rms)
	v["failed_frac"] = float64(failed) / float64(scans)
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// contractLine is the result object the benchmark contract asks for:
// exactly the metrics BENCHMARK.json lists for the run's trace mode.
func contractLine(spec *benchSpec, rec *record) ([]byte, error) {
	specs := spec.EndToEnd
	if rec.Trace == 1 {
		specs = spec.PerLayer
	}
	metrics := make(map[string]metric, len(specs))
	for _, ms := range specs {
		val, ok := rec.Values[ms.Name]
		if !ok && rec.Workload == replayWorkload {
			continue // the replay alone has no scans of a workload to read layers from
		}
		if !ok {
			return nil, fmt.Errorf("metric %s of BENCHMARK.json was not measured", ms.Name)
		}
		metrics[ms.Name] = metric{val, ms.Unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
}

func main() {
	var o options
	flag.StringVar(&o.Workload, "workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	flag.Int64Var(&o.Seed, "seed", 1, "input seed: noise realization and tumour position and size")
	flag.IntVar(&o.Seconds, "seconds", 45, "how long one run measures")
	flag.IntVar(&o.Trace, "trace", 0, "1 for the traced run that reports the per-layer metrics")
	flag.IntVar(&o.Size, "size", 44, "phantom grid size; 44 gives 76,041 equations")
	flag.StringVar(&o.outDir, "out", filepath.Join("_bench", "out"), "directory for result files and scratch data")
	flag.StringVar(&o.spans, "spans", "", "append the traced run's spans to this file as JSON lines")
	runs := flag.Int("runs", 1, "full run: repetitions of each workload, on seeds seed, seed+1, ...")
	commit := flag.String("commit", "", "full run: the commit to record in the result file")
	compare := flag.Bool("compare", false, "compare two result files given as arguments against the bounds")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		breach, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if breach {
			os.Exit(1)
		}
	case o.Workload == "":
		if err := ledger(spec, o, *runs, *commit); err != nil {
			fatal(err)
		}
	default:
		rec, err := run(o)
		if err != nil {
			fatal(err)
		}
		for _, v := range rec.Violations {
			fmt.Println("FAILED", v)
		}
		line, err := contractLine(spec, rec)
		if err != nil {
			fatal(err)
		}
		full, err := json.Marshal(rec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n%s\n", full, line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "_bench:", err)
	os.Exit(1)
}
