package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// The fast paths of a scan — a cached preoperative artifact, an update
// through the narrow band, a solve over any number of cores or ranks,
// an update instead of a registration — are worth having only if they
// deliver the slow path's answer. TestFastPathsMatchReference crosses
// the cases below with the paths below and compares each path with its
// reference once: bit for bit where the fast path is exact, and within
// one bound on the nodal RMS where it stops the solver somewhere else.
// The core count, a setting of the whole process, is the one path run
// apart, over the same cases (TestResultDigestsAnyCoreCount).

// tolBound is that bound, in mm: 4·√3·Tol, four times the nodal RMS at
// which the solver's rule stops (Tol per unknown, three unknowns a
// node), the bound ROADMAP item 12 declares between a solve the rule
// stopped and a converged one.
func tolBound(cfg Config) float64 { return 4 * math.Sqrt(3) * cfg.Solver.Tol }

// pathCase is a row of the suite: a streamed case and the Config its
// runs start from.
type pathCase struct {
	name string
	cfg  func() Config
	// scans returns the baseline scan, then one scan per update.
	scans func() []*phantom.Case
	// long cases are skipped in -short; bandOnly cases run the band path
	// alone; fallback cases take the band's full-grid fallback on every
	// update, the others on none.
	long, bandOnly, fallback bool
	// digests, when set, are the case's pinned result digests
	// (amd64), checked at every core count.
	digests []string
	// shared cases make their reference stream once per process, for
	// every test that compares with it.
	shared bool
}

// via is how runStream takes a case's later scans.
type via int

const (
	viaBand     via = iota // Session.Update, through the narrow band
	viaFull                // Session.Update with the band off: every voxel classified
	viaRegister            // Session.Register again, on the same session
)

// streamRun is one stream of a case's scans through a session.
type streamRun struct {
	sess *Session
	res  []*Result
	// band is what each scan's classify stage recorded of the band, and
	// within the number of voxels within three voxels of the last good
	// scan's boundary, which the band must hold (viaBand only).
	band   []bandAttrs
	within []int
}

// runStream registers the first scan in a fresh session under cfg and
// takes every later one as how says. Every solve must converge, and the
// session must hold a baseline from the first registration on and count
// every scan.
func runStream(t *testing.T, cfg Config, how via, scans ...*phantom.Case) *streamRun {
	t.Helper()
	sess, err := NewSession(cfg, scans[0].Preop, scans[0].PreopLabels)
	if err != nil {
		t.Fatal(err)
	}
	if sess.HasBaseline() {
		t.Fatal("baseline claimed before any registration")
	}
	n := len(scans)
	out := &streamRun{sess: sess, res: make([]*Result, n), band: make([]bandAttrs, n), within: make([]int, n)}
	for i, c := range scans {
		ctx := context.Background()
		if i > 0 {
			ctx = obs.WithSink(ctx, bandSink{&out.band[i]})
		}
		switch {
		case i == 0 || how == viaRegister:
			out.res[i], err = sess.Register(ctx, c.Intraop)
		case how == viaFull:
			// Without the last scan's classification in its baseline, an
			// update classifies every voxel, as a registration does.
			sess.base.labels, sess.base.phiBrain = nil, nil
			out.res[i], err = sess.Update(ctx, c.Intraop)
		default:
			phi := sess.base.phiBrain
			sp := phi.Grid.Spacing
			w := float32(3 * max(sp.X, sp.Y, sp.Z))
			for _, v := range phi.Data {
				if v >= -w && v <= w {
					out.within[i]++
				}
			}
			out.res[i], err = sess.Update(ctx, c.Intraop)
		}
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if !out.res[i].SolveStats.Converged || !sess.HasBaseline() || how == viaFull && out.band[i].set {
			t.Fatalf("scan %d: converged %v, baseline %v, band %+v: want a converged solve, a baseline, and no band on a full-grid update",
				i, out.res[i].SolveStats.Converged, sess.HasBaseline(), out.band[i])
		}
	}
	if sess.ScanCount() != n {
		t.Errorf("scan count %d after %d scans", sess.ScanCount(), n)
	}
	return out
}

// bandAttrs is what a classify stage span records of the narrow band;
// set is false on a scan that classified the whole grid from the start.
type bandAttrs struct {
	set      bool
	voxels   int
	fallback bool
}

// bandSink is a sink on the obs span seam that keeps the band
// attributes of the classify stage span.
type bandSink struct{ got *bandAttrs }

func (bandSink) SpanStarted(obs.SpanInfo) {}

func (s bandSink) SpanEnded(f obs.FinishedSpan) {
	if !f.Stage || f.Name != StageClassify {
		return
	}
	if n, ok := f.Attrs["band_voxels"].(int); ok {
		*s.got = bandAttrs{set: true, voxels: n, fallback: f.Attrs["band_fallback"] == true}
	}
}

// caseRun is a case under test: its scans, and the reference stream,
// run once on first use: the case's Config, no store, the default core
// count, every later scan an update through the band. dir is the disk
// tier of its store paths.
type caseRun struct {
	pathCase
	scans         []*phantom.Case
	ref, populate *streamRun
	dir           string
	store         *artifact.Store
}

func (c *caseRun) reference(t *testing.T) *streamRun {
	if s := sharedCase(c.name); c.ref == nil && s != nil {
		c.ref = s.ref
	}
	if c.ref == nil {
		c.ref = runStream(t, c.cfg(), viaBand, c.scans...)
		if c.shared {
			sharedRefs.Store(c.name, &caseRun{pathCase: c.pathCase, scans: c.scans, ref: c.ref})
		}
	}
	return c.ref
}

// sharedRefs holds each shared case's scans and reference stream, a
// *caseRun by case name; sharedCase returns one, or nil before it is made.
var sharedRefs sync.Map

func sharedCase(name string) *caseRun {
	c, _ := sharedRefs.Load(name)
	s, _ := c.(*caseRun)
	return s
}

// populated is the reference's twin on a disk-backed Store over c.dir,
// run once on first use, which misses the five preoperative artifacts.
func (c *caseRun) populated(t *testing.T) *streamRun {
	if c.populate == nil {
		cfg := c.cfg()
		c.store = openStore(t, c.dir)
		cfg.ArtifactStore = c.store
		c.populate = runStream(t, cfg, viaBand, c.scans...)
		if st := c.store.Stats(); st.Hits != 0 || st.Misses != 5 {
			t.Fatalf("populate run: store %+v, want 5 misses", st)
		}
	}
	return c.populate
}

// fastPath is a column of the suite: run returns the path's stream and
// its reference's, which exact paths match bit for bit and the others
// within tolBound.
type fastPath struct {
	name  string
	exact bool
	run   func(t *testing.T, c *caseRun) (got, want []*Result)
}

// hitPath is a store hit against the run it reuses: a second run on
// the Store the case's populate run missed on, which hits in memory and
// must deliver the store-less reference, or, disk, a run on a fresh
// Store over the populated directory, which decodes its hits and must
// deliver the populate run.
func hitPath(name string, disk bool) fastPath {
	return fastPath{name, true, func(t *testing.T, c *caseRun) ([]*Result, []*Result) {
		cfg := c.cfg()
		populate := c.populated(t)
		cfg.ArtifactStore = c.store
		misses, want := int64(5), c.reference(t).res
		if disk {
			cfg.ArtifactStore = openStore(t, c.dir)
			misses, want = 0, populate.res
		}
		hits := cfg.ArtifactStore.Stats().Hits
		got := runStream(t, cfg, viaBand, c.scans...)
		if st := cfg.ArtifactStore.Stats(); st.Hits-hits != 5 || st.Misses != misses || st.Entries != 5 {
			t.Errorf("store after the hit run: %+v, want 5 more hits, %d misses, 5 entries", st, misses)
		}
		return got.res, want
	}}
}

// ranksPath solves the case over ranks ranks against its Config's.
func ranksPath(ranks int) fastPath {
	return fastPath{fmt.Sprintf("Ranks=%d", ranks), false, func(t *testing.T, c *caseRun) ([]*Result, []*Result) {
		cfg := c.cfg()
		cfg.Ranks = ranks
		return runStream(t, cfg, viaBand, c.scans...).res, c.reference(t).res
	}}
}

// updatePath is each update against a Register of the same scan on a
// session with the same history. An update reuses the baseline's
// pose and aligned scan, which a registration re-estimates, so with the
// rigid stage on only the nodal displacements are asserted; the match
// metric's gap is logged.
func updatePath(rigid bool) fastPath {
	name := "update"
	if rigid {
		name = "update-rigid"
	}
	return fastPath{name, false, func(t *testing.T, c *caseRun) ([]*Result, []*Result) {
		cfg := c.cfg()
		got := c.reference(t)
		if rigid {
			cfg.SkipRigid = false
			got = runStream(t, cfg, viaBand, c.scans...)
		}
		want := runStream(t, cfg, viaRegister, c.scans...)
		stages := []string{StageClassify, StageSurface, StageSolve, StageResample}
		for i, ru := range got.res[1:] {
			rc := want.res[i+1]
			if !ru.Incremental || ru.Update == nil || rc.Incremental {
				t.Fatalf("update %d: Incremental %v (%+v), register's %v", i+1, ru.Incremental, ru.Update, rc.Incremental)
			}
			if !ru.Update.WarmStarted || !ru.Update.PCCacheHit || ru.Update.DOFsPatched == 0 {
				t.Errorf("update %d did not reuse the baseline: %+v", i+1, ru.Update)
			}
			if ru.SolveStats.EntryResRel >= 1 {
				t.Errorf("update %d: warm seed entry residual %g not below a cold start", i+1, ru.SolveStats.EntryResRel)
			}
			var ran []string
			for _, st := range ru.Timings {
				ran = append(ran, st.Name)
			}
			if !reflect.DeepEqual(ran, stages) {
				t.Errorf("update %d ran stages %v, want %v", i+1, ran, stages)
			}
			gap := (ru.MatchMeanAbsDiff - rc.MatchMeanAbsDiff) / rc.MatchMeanAbsDiff
			t.Logf("update %d: match %.3f, register's %.3f (%+.2f%%)", i+1, ru.MatchMeanAbsDiff, rc.MatchMeanAbsDiff, 100*gap)
			// No voxel centre of a 4 mm grid lies within the metric's 3 mm
			// of the boundary, so there both metrics read 0.
			if !rigid && rc.RigidMeanAbsDiff > 0 && (math.Abs(gap) > 0.01 || ru.MatchMeanAbsDiff >= ru.RigidMeanAbsDiff) {
				t.Errorf("update %d: match %v, register's %v, rigid-only %v: want within 1%% of register's and below rigid-only",
					i+1, ru.MatchMeanAbsDiff, rc.MatchMeanAbsDiff, ru.RigidMeanAbsDiff)
			}
		}
		return got.res, want.res
	}}
}

// bandPath is every update through the band against one that classifies
// every voxel, labels included. The band must hold the voxels within
// three voxels of the last boundary and fall back as the case says.
var bandPath = fastPath{"band", true, func(t *testing.T, c *caseRun) ([]*Result, []*Result) {
	got := c.reference(t)
	want := runStream(t, c.cfg(), viaFull, c.scans...)
	n := c.scans[0].Grid.Len()
	lo, hi := 1.0, 0.0
	for i := 1; i < len(c.scans); i++ {
		b := got.band[i]
		if !b.set || b.fallback != c.fallback || b.voxels != got.within[i] || b.voxels == 0 || b.voxels >= n {
			t.Errorf("update %d (%.2f mm): band %+v of %d voxels, want the %d within three voxels, fallback %v",
				i, c.scans[i].Params.ShiftMagnitude, b, n, got.within[i], c.fallback)
		}
		// Outside the band an update keeps the last scan's labels, which
		// may differ among the classes that are not brain; after the
		// fallback every label is the full classification's.
		for j, l := range want.res[i].IntraopLabels.Data {
			if g := got.res[i].IntraopLabels.Data[j]; g != l && (c.fallback || volume.IsBrainTissue(g) != volume.IsBrainTissue(l)) {
				t.Fatalf("update %d, voxel %d: label %d, full classification %d", i, j, g, l)
			}
		}
		frac := float64(b.voxels) / float64(n)
		lo, hi = min(lo, frac), max(hi, frac)
	}
	t.Logf("%d updates, band %.1f–%.1f%% of the grid", len(c.scans)-1, 100*lo, 100*hi)
	return got.res, want.res
}}

// fastPaths are the suite's columns.
var fastPaths = []fastPath{
	hitPath("memory-hit", false), hitPath("disk-hit", true),
	bandPath,
	ranksPath(1), ranksPath(3),
	updatePath(false), updatePath(true),
}

// pathCases are the suite's rows.
func pathCases() []pathCase {
	kuhn := fastConfig
	bcc := func() Config {
		cfg := fastConfig()
		cfg.UseBCCMesh = true
		return cfg
	}
	shifted := func(h float64) func() []*phantom.Case {
		return func() []*phantom.Case { return shiftScans(24, h) }
	}
	stream := func(seed int64, updates int) func() []*phantom.Case {
		return func() []*phantom.Case {
			p := phantom.DefaultParams(32)
			p.NoiseStd = 2
			p.Seed = seed
			return streamScans(p, triangleWave(3, 6.5, 0.5, 1)[:updates+1])
		}
	}
	updates := 14
	if testing.Short() {
		updates = 5
	}
	return []pathCase{
		{name: "Kuhn-1mm", shared: true, cfg: kuhn, scans: shifted(1), digests: pinnedDigests},
		{name: "BCC-1mm", shared: true, cfg: bcc, scans: shifted(1)},
		{name: "Kuhn-4mm", shared: true, cfg: kuhn, scans: shifted(4)},
		clinicalCase,
		// 14 updates of 0.5 mm steps, at size 32: at 28 (a 28 mm head)
		// the band is 45 % of the grid.
		{name: "stream-seed1", bandOnly: true, cfg: kuhn, scans: stream(1, updates)},
		{name: "stream-seed2", long: true, bandOnly: true, cfg: kuhn, scans: stream(2, updates)},
		// The brain moves 6 mm past the last scan, twice the band's
		// half-width, and changes membership in its outer shell.
		{name: "jump-3-9mm", bandOnly: true, fallback: true, cfg: kuhn, scans: func() []*phantom.Case {
			return streamScans(phantom.DefaultParams(32), []float64{3, 9})
		}},
	}
}

// streamScans is phantom.GenerateStream's case and steps as one scan
// list on the case's preoperative pair.
func streamScans(p phantom.Params, shifts []float64) []*phantom.Case {
	st := phantom.GenerateStream(p, shifts)
	out := []*phantom.Case{st.Case}
	for _, s := range st.Steps {
		c := *st.Case
		c.Params.ShiftMagnitude, c.Intraop, c.IntraopLabels, c.Truth = s.ShiftMagnitude, s.Intraop, s.IntraopLabels, s.Truth
		out = append(out, &c)
	}
	return out
}

// nodalRMS returns the RMS over nodes of the distance between two
// results' nodal displacements, and the largest one.
func nodalRMS(a, b *Result) (rms, worst float64) {
	sum := 0.0
	for n, u := range a.NodeDisplacements {
		d := u.Sub(b.NodeDisplacements[n]).Norm()
		sum += d * d
		worst = max(worst, d)
	}
	return math.Sqrt(sum / float64(len(a.NodeDisplacements))), worst
}

// TestFastPathsMatchReference is the suite: every path on every case
// that runs it (see pathCase), the cases side by side, then the BCC
// lattice's field error against the Kuhn lattice's.
func TestFastPathsMatchReference(t *testing.T) {
	t.Cleanup(func() {
		kuhn, bcc := sharedCase("Kuhn-1mm"), sharedCase("BCC-1mm")
		for i := 0; kuhn != nil && bcc != nil && i < len(kuhn.scans); i++ {
			rk, _, errK := kuhn.scans[i].TruthRMS(kuhn.ref.res[i].Backward)
			rb, _, errB := bcc.scans[i].TruthRMS(bcc.ref.res[i].Backward)
			t.Logf("scan %d: field RMS against the truth, Kuhn %.3f mm, BCC %.3f mm", i, rk, rb)
			if errK != nil || errB != nil || rb > 1.25*rk {
				t.Errorf("scan %d: BCC field RMS %.3f mm, Kuhn's %.3f mm (%v, %v): want at most 1.25×", i, rb, rk, errK, errB)
			}
		}
	})
	for _, pc := range pathCases() {
		t.Run(pc.name, func(t *testing.T) {
			if pc.long && testing.Short() {
				t.Skip("long case skipped in -short mode")
			}
			t.Parallel()
			c := &caseRun{pathCase: pc, scans: pc.scans(), dir: t.TempDir()}
			for _, p := range fastPaths {
				if pc.bandOnly && p.name != bandPath.name {
					continue
				}
				t.Run(p.name, func(t *testing.T) {
					got, want := p.run(t, c)
					if p.exact {
						sameResults(t, p.name, got, want)
						return
					}
					bound, rms, worst := tolBound(c.cfg()), 0.0, 0.0
					for i := range want {
						r, w := nodalRMS(got[i], want[i])
						if r > bound {
							t.Errorf("scan %d: nodal RMS %.3g mm from the reference, want <= %.3g", i, r, bound)
						}
						rms, worst = max(rms, r), max(worst, w)
					}
					t.Logf("nodal RMS <= %.2g mm (bound %.2g), max %.2g mm", rms, bound, worst)
				})
			}
		})
	}
}

// TestResultDigestsAnyCoreCount is the suite's core-count path: the
// voxel and vertex passes split their work over GOMAXPROCS slabs, yet no
// result depends on how many, so every case that runs more than the
// band path delivers its reference stream's bits at 1, 2 and 7 cores
// (more slabs than cores, and uneven slabs), and Kuhn-1mm its pinned
// digests. The setting is the process's, so the counts run in turn,
// after the references are made at the default count.
func TestResultDigestsAnyCoreCount(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	var cases []*caseRun
	for _, pc := range pathCases() {
		if pc.bandOnly || pc.long && testing.Short() {
			continue
		}
		c := &caseRun{pathCase: pc, scans: pc.scans()}
		c.reference(t)
		cases = append(cases, c)
	}
	for _, procs := range []int{1, 2, 7} {
		t.Run(strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					got := c.ref.res
					if procs != def {
						got = runStream(t, c.cfg(), viaBand, c.scans...).res
					}
					sameResults(t, fmt.Sprintf("GOMAXPROCS=%d", procs), got, c.ref.res)
					if d := resultDigests(got); c.digests != nil && runtime.GOARCH == "amd64" && !reflect.DeepEqual(d, c.digests) {
						t.Errorf("digests\n got %v\nwant %v", d, c.digests)
					}
				})
			}
		})
	}
}
