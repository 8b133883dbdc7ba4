// Benchmarks regenerating every table and figure of the paper's
// evaluation section. One benchmark per figure:
//
//	Fig3  - Deep Flow node specification table
//	Fig4  - match quality of the simulated deformation
//	Fig5  - surface displacement field statistics
//	Fig6  - intraoperative pipeline timeline
//	Fig7  - 77,511-equation scaling, Deep Flow cluster
//	Fig8a - 77,511-equation scaling, Ultra HPC 6000 SMP
//	Fig8b - 77,511-equation scaling, 2x Ultra 80 pair
//	Fig9  - 253,308-equation scaling, Ultra HPC 6000
//
// The scaling benchmarks build their systems once (cached across
// benchmark iterations) and re-run the real decomposition,
// preconditioner setup and GMRES solve per CPU count; predicted times
// for the 1990s platforms are emitted as custom metrics
// (model_s_<cpus>cpu). Run with:
//
//	go test -bench=. -benchmem
//
// Use -short to shrink the scaling systems ~10x.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/phantom"
	"repro/internal/solver"
)

// pipelineCase caches a mid-size synthetic case and pipeline result for
// the Figure 4/5/6 benchmarks.
var pipelineOnce sync.Once
var pipelineCase *phantom.Case
var pipelineRes *core.Result
var pipelineErr error

// registerCase runs one full registration of the case's intraoperative
// scan through a fresh session.
func registerCase(cfg core.Config, c *phantom.Case) (*core.Result, error) {
	sess, err := core.NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		return nil, err
	}
	return sess.Register(context.Background(), c.Intraop)
}

func pipelineResult() (*phantom.Case, *core.Result, error) {
	pipelineOnce.Do(func() {
		c := phantom.Generate(phantom.DefaultParams(48))
		cfg := core.DefaultConfig()
		cfg.SkipRigid = true
		pipelineCase = c
		pipelineRes, pipelineErr = registerCase(cfg, c)
	})
	return pipelineCase, pipelineRes, pipelineErr
}

// builtSystems caches the scaling-study systems per target size.
var builtMu sync.Mutex
var builtSystems = map[int]*figures.Built{}

func builtSystem(b *testing.B, eqs int) *figures.Built {
	b.Helper()
	builtMu.Lock()
	defer builtMu.Unlock()
	if sys, ok := builtSystems[eqs]; ok {
		return sys
	}
	sys, err := figures.BuildHeadSystem(context.Background(), figures.SystemSpec{TargetEquations: eqs, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	builtSystems[eqs] = sys
	return sys
}

func scalingEqs(b *testing.B, full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

// BenchmarkFig3MachineModel regenerates the Deep Flow specification
// table (paper Figure 3).
func BenchmarkFig3MachineModel(b *testing.B) {
	var tab string
	for i := 0; i < b.N; i++ {
		tab = cluster.Fig3Table()
	}
	if testing.Verbose() {
		b.Log("\n" + tab)
	}
	if len(tab) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFig4MatchQuality reproduces the quantitative content of the
// paper's Figure 4: the simulated deformation matches the
// intraoperative scan better than rigid registration alone.
func BenchmarkFig4MatchQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := phantom.Generate(phantom.DefaultParams(48))
		cfg := core.DefaultConfig()
		cfg.SkipRigid = true
		res, err := registerCase(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.RigidMeanAbsDiff, "rigid_absdiff")
			b.ReportMetric(res.MatchMeanAbsDiff, "biomech_absdiff")
			if res.MatchMeanAbsDiff >= res.RigidMeanAbsDiff {
				b.Errorf("biomechanical match did not beat rigid: %v vs %v",
					res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
			}
		}
	}
}

// BenchmarkFig5SurfaceDisplacement reports the surface displacement
// magnitudes that the paper's Figure 5 color-codes.
func BenchmarkFig5SurfaceDisplacement(b *testing.B) {
	_, res, err := pipelineResult()
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		// The displacement statistic computation is the benchmarked op.
		sum := 0.0
		for _, d := range res.Surface.Displacements {
			sum += d.Norm()
		}
		mean = sum / float64(len(res.Surface.Displacements))
	}
	b.ReportMetric(mean, "mean_disp_mm")
	b.ReportMetric(res.Surface.MaxDisp, "max_disp_mm")
}

// BenchmarkFig6PipelineTimeline runs the full intraoperative pipeline,
// the paper's Figure 6 timeline.
func BenchmarkFig6PipelineTimeline(b *testing.B) {
	c := phantom.Generate(phantom.DefaultParams(48))
	cfg := core.DefaultConfig()
	cfg.SkipRigid = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := registerCase(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, st := range res.Timings {
				b.ReportMetric(st.Elapsed.Seconds(), "s_"+shortStage(st.Name))
			}
		}
	}
}

func shortStage(name string) string {
	switch name {
	case "rigid registration (MI)":
		return "rigid"
	case "tissue classification (k-NN)":
		return "classify"
	case "mesh generation":
		return "mesh"
	case "surface displacement":
		return "surface"
	case "biomechanical simulation":
		return "biomech"
	case "resampling":
		return "resample"
	}
	return name
}

// scalingBench runs one scaling figure: the real per-CPU-count
// decomposition + solve, with machine-model times reported as metrics.
func scalingBench(b *testing.B, eqs int, mach cluster.Machine, cpus []int) {
	built := builtSystem(b, eqs)
	b.ResetTimer()
	var rows []figures.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.ScalingStudy(context.Background(), built, mach, cpus, solver.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.TotalSec, fmt.Sprintf("model_s_%dcpu", r.CPUs))
	}
	if testing.Verbose() {
		b.Log("\n" + figures.FormatRows(mach.Name, rows))
	}
	// Paper shape assertions: assembly+solve total must improve from 1
	// CPU to the maximum swept count.
	first, last := rows[0], rows[len(rows)-1]
	if last.TotalSec >= first.TotalSec {
		b.Errorf("no end-to-end speedup: %v s at %d CPUs vs %v s at %d",
			first.TotalSec, first.CPUs, last.TotalSec, last.CPUs)
	}
}

// BenchmarkFig7DeepFlow regenerates the paper's Figure 7: the 77,511-
// equation system on the Deep Flow cluster, including the headline
// claim of a volumetric simulation in under ten seconds.
func BenchmarkFig7DeepFlow(b *testing.B) {
	eqs := scalingEqs(b, 77511)
	built := builtSystem(b, eqs)
	mach := cluster.DeepFlow()
	b.ResetTimer()
	var rows []figures.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.ScalingStudy(context.Background(), built, mach,
			[]int{1, 2, 4, 6, 8, 10, 12, 14, 16}, solver.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.TotalSec, fmt.Sprintf("model_s_%dcpu", r.CPUs))
	}
	if testing.Verbose() {
		b.Log("\n" + figures.FormatRows("Figure 7: "+mach.Name, rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.TotalSec >= first.TotalSec {
		b.Errorf("no speedup: %v -> %v s", first.TotalSec, last.TotalSec)
	}
	if !testing.Short() {
		// Headline claim: assembly + solve in under ten seconds at full
		// cluster size (the paper's "less than ten seconds").
		if as := last.AssembleSec + last.SolveSec; as >= 10 {
			b.Errorf("assemble+solve at 16 CPUs = %v s, want < 10", as)
		}
	}
}

// BenchmarkFig8aUltra6000 regenerates Figure 8a: the same system on the
// 20-CPU SMP.
func BenchmarkFig8aUltra6000(b *testing.B) {
	scalingBench(b, scalingEqs(b, 77511), cluster.UltraHPC6000(),
		[]int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20})
}

// BenchmarkFig8bUltra80Pair regenerates Figure 8b: the same system on
// two 4-CPU Ultra 80 servers with Fast Ethernet.
func BenchmarkFig8bUltra80Pair(b *testing.B) {
	scalingBench(b, scalingEqs(b, 77511), cluster.Ultra80Pair(),
		[]int{1, 2, 3, 4, 5, 6, 7, 8})
}

// BenchmarkFig9LargeSystem regenerates Figure 9: the 253,308-equation
// system ("2.5 times larger ... in a clinically compatible time frame")
// on the Ultra HPC 6000.
func BenchmarkFig9LargeSystem(b *testing.B) {
	eqs := scalingEqs(b, 253308)
	built := builtSystem(b, eqs)
	mach := cluster.UltraHPC6000()
	b.ResetTimer()
	var rows []figures.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.ScalingStudy(context.Background(), built, mach,
			[]int{1, 4, 8, 12, 16, 20}, solver.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.TotalSec, fmt.Sprintf("model_s_%dcpu", r.CPUs))
	}
	if testing.Verbose() {
		b.Log("\n" + figures.FormatRows("Figure 9: "+mach.Name, rows))
	}
	last := rows[len(rows)-1]
	if !testing.Short() && last.AssembleSec+last.SolveSec > 60 {
		b.Errorf("253k system at 20 CPUs = %v s: not clinically compatible",
			last.AssembleSec+last.SolveSec)
	}
}
