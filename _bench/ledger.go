package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// paperSize is the phantom size of the 76,041-equation problem;
// bigSize gives 246,729 equations (the paper's Figure 9 system).
const (
	paperSize = 44
	bigSize   = 66
)

// host records the machine settings a result was taken under.
type host struct {
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Commit     string  `json:"commit,omitempty"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	// NoisyHost is set when the 1-minute load average at the start of
	// the run exceeded half the cores: something else was running.
	NoisyHost bool   `json:"noisy_host"`
	Time      string `json:"time"`
}

func hostFacts(commit string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100 (default)",
		Commit:     commit,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if v := os.Getenv("GOGC"); v != "" {
		h.GOGC = v
	}
	// Best effort: both files are Linux-specific.
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(buf)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // stays 0 if the kernel's format changes
		}
	}
	h.NoisyHost = h.LoadAvg1 > float64(h.NProc)/2
	return h
}

// resultFile is the schema of results.json and layers.json.
type resultFile struct {
	Host host     `json:"host"`
	Runs []record `json:"runs"`
}

// child runs one workload in a process of its own and returns its
// record, the second-to-last line of its output.
func child(o options) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", o.Workload, "-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(o.Seconds),
		"-trace", fmt.Sprint(o.Trace), "-size", fmt.Sprint(o.Size), "-out", o.outDir, "-spans", o.spans}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", o.Workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: no result in output %q", o.Workload, out.String())
	}
	// Anything before the two result lines reports failed samples.
	for _, l := range lines[:len(lines)-2] {
		fmt.Println(l)
	}
	rec := &record{}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), rec); err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	return rec, nil
}

// ledger is the full run: every workload of BENCHMARK.json, each run in
// a child process, printed metric by metric and written to a result
// file. The traced run adds one replay at 253k equations.
func ledger(spec *benchSpec, o options, runs int, commit string) error {
	file := resultFile{Host: hostFacts(commit)}
	if file.Host.NoisyHost {
		fmt.Printf("noisy_host: 1-minute load average %.2f on %d cores\n", file.Host.LoadAvg1, file.Host.NProc)
	}
	out, specs := "results.json", spec.endToEnd()
	if o.Trace == 1 {
		out, specs = "layers.json", spec.PerLayer
		o.spans = filepath.Join(o.outDir, "trace.jsonl")
		if err := os.WriteFile(o.spans, nil, 0o644); err != nil {
			return err
		}
	}
	failed := 0
	for _, w := range spec.Workloads {
		for r := 0; r < runs; r++ {
			co := o
			co.Workload, co.Seed = w.Name, o.Seed+int64(r)
			fmt.Fprintf(os.Stderr, "running %s seed %d for %d s\n", co.Workload, co.Seed, co.Seconds)
			rec, err := child(co)
			if err != nil {
				return err
			}
			failed += rec.Failed
			file.Runs = append(file.Runs, *rec)
		}
		printWorkload(os.Stdout, w.Name, specs, file.Runs)
	}
	if o.Trace == 1 && o.Size == paperSize {
		co := o
		co.Workload, co.Size, co.Seconds = replayWorkload, bigSize, 1
		fmt.Fprintf(os.Stderr, "running %s at size %d\n", co.Workload, co.Size)
		rec, err := child(co)
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, *rec)
		fmt.Printf("%-12s %-30s %14.6g ms\n", "253k", "fem.assemble_253k_ms", rec.Values["fem.assemble_ms"])
		fmt.Printf("%-12s %-30s %14.6g ms\n", "253k", "solver.gmres_253k_ms", rec.Values["solver.gmres_ms"])
		fmt.Printf("%-12s %-30s %14.6g count\n", "253k", "solver.gmres_253k_iterations", rec.Values["solver.gmres_iterations"])
		fmt.Printf("%-12s %-30s %14.6g count\n", "253k", "fem.equations", rec.Values["fem.equations"])
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, out)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d scans failed their output checks", failed)
	}
	return nil
}

// valuesOf collects one metric of one workload across runs.
func valuesOf(runs []record, workload, name string) (vals []float64, scans int) {
	for _, r := range runs {
		if v, ok := r.Values[name]; ok && r.Workload == workload {
			vals = append(vals, v)
			scans += r.Attempted
		}
	}
	return vals, scans
}

// printWorkload prints every metric of one workload by name: the median
// over its runs, the unit, and how many scans it rests on.
func printWorkload(w io.Writer, workload string, specs []metricSpec, runs []record) {
	for _, ms := range specs {
		vals, scans := valuesOf(runs, workload, ms.Name)
		if len(vals) == 0 {
			continue // scan_ms_p90 on a run of fewer than 100 scans
		}
		fmt.Fprintf(w, "%-12s %-30s %14.6g %-6s (%s is better; %d runs, %d scans)\n",
			workload, ms.Name, median(vals), ms.Unit, ms.Better, len(vals), scans)
	}
}

// compareFiles prints, for every end-to-end metric and workload, both
// files' medians, the change from a to b phrased so that worse reads as
// worse whatever the metric's direction, the bound, and a verdict:
// WORSE beyond the bound, unresolved when either side's quartile spread
// exceeds the bound, ok otherwise. It reports whether any pair is WORSE.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (breach bool, err error) {
	var files [2]resultFile
	for i, path := range []string{pathA, pathB} {
		buf, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(buf, &files[i]); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, wl := range spec.Workloads {
		for _, ms := range spec.endToEnd() {
			a, _ := valuesOf(files[0].Runs, wl.Name, ms.Name)
			b, _ := valuesOf(files[1].Runs, wl.Name, ms.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(ms, a, b)
			fmt.Fprintf(w, "%-12s %-16s %12.6g -> %-12.6g %-6s %-18s bound %-5s spread %s / %s  %s\n",
				wl.Name, ms.Name, median(a), median(b), ms.Unit, v.change, percent(ms.Bound), v.spread[0], v.spread[1], v.verdict)
			breach = breach || v.verdict == verdictWorse
		}
	}
	return breach, nil
}

const (
	verdictOK         = "ok"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

type judgement struct {
	change, verdict string
	spread          [2]string // each side's quartile spread
}

func percent(x float64) string { return strconv.FormatFloat(100*x, 'f', 1, 64) + "%" }

// judge compares the medians of one metric on one workload.
func judge(ms metricSpec, a, b []float64) judgement {
	ma, mb := median(a), median(b)
	// worse is the change towards worse as a share of a's median, or in
	// the metric's own unit when that median is 0.
	worse := mb - ma
	if ms.Better == "higher" {
		worse = -worse
	}
	j := judgement{verdict: verdictOK, spread: [2]string{"n/a", "n/a"}}
	if ma != 0 {
		worse /= ma
		j.change = "worse by " + percent(worse)
		if worse < 0 {
			j.change = "better by " + percent(-worse)
		}
	} else {
		j.change = fmt.Sprintf("worse by %.4g %s", worse, ms.Unit)
		if worse <= 0 {
			j.change = fmt.Sprintf("better by %.4g %s", -worse, ms.Unit)
		}
	}
	if worse > ms.Bound {
		j.verdict = verdictWorse
	}
	for i, side := range [][]float64{a, b} {
		spread, ok := quartileSpread(side)
		if !ok {
			continue
		}
		j.spread[i] = percent(spread)
		// A bound of 0 tolerates no change at all, whatever the spread.
		if ms.Bound > 0 && spread > ms.Bound {
			j.verdict = verdictUnresolved
		}
	}
	return j
}
