package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/phantom"
	"repro/internal/service"
	"repro/internal/volume"
)

// Shift schedule of a streamed case: the baseline scan at 3 mm, then
// 14 later scans ramping to 6.5 mm in 0.25 mm steps. A session streams
// no further, because the update path does not stay accurate: every
// update's robust refresh drops a few classifier prototypes for good
// (225 at the baseline, 134 after 27 updates at seed 1), and from the
// 28th update on the recovered displacement is worse than the rigid-only
// one; at seeds 7 and 8 updates above 6.75 mm fail the accuracy check
// from the 16th on.
const (
	shiftLo, shiftHi, shiftStep = 3.0, 6.5, 0.25
	// streamWarmups is the number of untimed updates after a baseline.
	streamWarmups = 2
	// accuracyRatio gates recovered displacement error against the
	// zero-field (rigid-only) error of the same truth; measured ratios
	// are 0.53–0.67 over 3–8 mm.
	accuracyRatio = 0.8
	// serviceUpdates is the number of streamed updates after each
	// service registration.
	serviceUpdates = 8
	// storeHitsPerReopen is the number of pure preoperative stages a
	// registration against a warm store is served from.
	storeHitsPerReopen = 5
)

func shiftSchedule() []float64 {
	var s []float64
	for v := shiftLo; v <= shiftHi; v += shiftStep {
		s = append(s, v)
	}
	return s
}

// anatomy is one generated case with the per-scan ground truth the
// output checks need. Scan 0 is the baseline, scan i+1 is Steps[i].
type anatomy struct {
	stream  *phantom.Stream
	zeroRMS []float64 // RMS of the truth field itself: the rigid-only error
}

// newAnatomy generates the inputs of one seed. The seed sets the noise
// realization and moves and resizes the tumour by a few percent, so the
// segmentation — and with it every content key of the artifact layer —
// changes with the seed, not only the noise.
func newAnatomy(size int, seed int64, shifts []float64) (*anatomy, error) {
	p := phantom.DefaultParams(size)
	p.NoiseStd = 2
	p.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	jitter := func(scale float64) float64 { return scale * (2*rng.Float64() - 1) }
	p.TumorRadius *= 1 + jitter(0.04)
	p.TumorCenter = p.TumorCenter.Add(geom.V(jitter(0.02), jitter(0.02), jitter(0.02)))
	a := &anatomy{stream: phantom.GenerateStream(p, shifts)}
	zero := volume.NewField(a.stream.Case.Grid)
	for i := 0; i <= len(a.stream.Steps); i++ {
		z, err := zero.RMSDifference(a.truth(i), a.stream.Case.BrainMask)
		if err != nil {
			return nil, err
		}
		a.zeroRMS = append(a.zeroRMS, z)
	}
	return a, nil
}

func (a *anatomy) scanVolume(i int) *volume.Scalar {
	if i == 0 {
		return a.stream.Case.Intraop
	}
	return a.stream.Steps[i-1].Intraop
}

func (a *anatomy) truth(i int) *volume.Field {
	if i == 0 {
		return a.stream.Case.Truth
	}
	return a.stream.Steps[i-1].Truth
}

// benchConfig is the pipeline configuration of every workload: the
// paper-scale mesh (one cell per voxel), rigid stage on.
func benchConfig(ranks int) core.Config {
	cfg := core.DefaultConfig()
	cfg.MeshCellSize = 1
	cfg.Ranks = ranks
	return cfg
}

// scan is the outcome of one timed scan: the latency the caller saw,
// the output checks it violated, and the values the layers returned.
type scan struct {
	Idx         int // which scan of the case: 0 the baseline, i the i-th step
	Update      bool
	MS          float64
	QueueWaitMS float64
	RMSErrMM    float64
	Violations  []string
	Stages      []core.StageTiming
	Iterations  int
	PCCacheHit  bool
	ItersSaved  int
	Shed        bool // refused with service.ErrQueueFull
	FellBack    bool // an update that ran as a full registration
}

func (s *scan) failed() bool { return len(s.Violations) > 0 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkScan applies the per-scan output checks. A scan that violates
// any of them counts as failed whatever its latency.
func checkScan(a *anatomy, idx int, update bool, elapsed time.Duration, res *core.Result, err error) scan {
	s := scan{Idx: idx, Update: update, MS: ms(elapsed)}
	fail := func(format string, args ...any) {
		s.Violations = append(s.Violations, fmt.Sprintf(format, args...))
	}
	if err != nil {
		s.Shed = errors.Is(err, service.ErrQueueFull)
		fail("error: %v", err)
		return s
	}
	s.Stages = res.Timings
	s.Iterations = res.SolveStats.Iterations
	if res.Degraded {
		fail("degraded: %s", res.DegradedReason)
		return s
	}
	if !res.SolveStats.Converged {
		fail("solver did not converge (%d iterations, residual %.3g)", res.SolveStats.Iterations, res.SolveStats.FinalResRel)
	}
	if update {
		if !res.Incremental || res.Update == nil {
			s.FellBack = true
			fail("update fell back to a full registration")
		} else {
			s.PCCacheHit = res.Update.PCCacheHit
			s.ItersSaved = res.Update.IterationsSaved
			if !res.Update.PCCacheHit {
				fail("update missed the preconditioner cache")
			}
			if !res.Update.WarmStarted {
				fail("update was not warm-started")
			}
		}
	}
	if res.Warped == nil || !res.Warped.Grid.SameShape(a.stream.Case.Grid) {
		fail("no warped image on the intraoperative grid")
	}
	if res.MatchMeanAbsDiff >= res.RigidMeanAbsDiff {
		fail("match residual %.3f not below rigid-only %.3f", res.MatchMeanAbsDiff, res.RigidMeanAbsDiff)
	}
	rms, rerr := res.Backward.RMSDifference(a.truth(idx), a.stream.Case.BrainMask)
	if rerr != nil {
		fail("displacement error: %v", rerr)
		return s
	}
	s.RMSErrMM = rms
	if limit := accuracyRatio * a.zeroRMS[idx]; rms >= limit {
		fail("displacement error %.3f mm not below %.3f mm (%.1f x rigid-only)", rms, limit, accuracyRatio)
	}
	return s
}

// prepared is a workload after set-up: run takes timed samples for at
// least d (always at least one), and returns them with the wall time
// from the first scan handed in to the last result.
type prepared struct {
	run   func(d time.Duration) ([]scan, time.Duration)
	store *artifact.Store // nil when the workload has none
	close func()          // nil when there is nothing to release
}

// workloads maps the names in BENCHMARK.json to their set-up. Set-up is
// everything before the first timed sample, input generation included.
var workloads = map[string]func(size int, seed int64) (*prepared, error){
	"cold-77k":    setupCold,
	"stream-77k":  setupStream,
	"reopen-77k":  setupReopen,
	"service-mix": setupServiceMix,
}

// timedLoop runs sample until d has passed and returns the samples
// with the wall time they took.
func timedLoop(d time.Duration, sample func() scan) ([]scan, time.Duration) {
	var scans []scan
	start := time.Now()
	for len(scans) == 0 || time.Since(start) < d {
		scans = append(scans, sample())
	}
	return scans, time.Since(start)
}

// registerOnce times one full registration by a fresh session.
func registerOnce(cfg core.Config, a *anatomy) (*core.Session, *core.Result, scan) {
	c := a.stream.Case
	sess, err := core.NewSession(cfg, c.Preop, c.PreopLabels)
	if err != nil {
		return nil, nil, checkScan(a, 0, false, 0, nil, err)
	}
	t0 := time.Now()
	res, err := sess.Register(context.Background(), c.Intraop)
	return sess, res, checkScan(a, 0, false, time.Since(t0), res, err)
}

func setupFailure(what string, s scan) error {
	return fmt.Errorf("%s failed its checks: %v", what, s.Violations)
}

// setupCold: every sample is a fresh session without an artifact store
// and one full registration. Set-up only generates the inputs: nothing
// is warmed, which is what cold means.
func setupCold(size int, seed int64) (*prepared, error) {
	a, err := newAnatomy(size, seed, []float64{shiftLo})
	if err != nil {
		return nil, err
	}
	cfg := benchConfig(runtime.NumCPU())
	return &prepared{
		run: func(d time.Duration) ([]scan, time.Duration) {
			return timedLoop(d, func() scan {
				_, _, s := registerOnce(cfg, a)
				return s
			})
		},
	}, nil
}

// setupStream: a session registers the baseline and streams two
// warm-up updates, untimed; the timed samples are the incremental
// updates along the rest of the ramp. When the ramp ends, a fresh
// session is brought to the same point, untimed, and the samples go on.
// The first session is set-up; the window is the time inside samples.
func setupStream(size int, seed int64) (*prepared, error) {
	a, err := newAnatomy(size, seed, shiftSchedule())
	if err != nil {
		return nil, err
	}
	var sess *core.Session
	update := func(idx int) scan {
		t0 := time.Now()
		res, err := sess.Update(context.Background(), a.scanVolume(idx))
		return checkScan(a, idx, true, time.Since(t0), res, err)
	}
	open := func() error {
		var s scan
		if sess, _, s = registerOnce(benchConfig(runtime.NumCPU()), a); s.failed() {
			return setupFailure("baseline registration", s)
		}
		for idx := 1; idx <= streamWarmups; idx++ {
			if s := update(idx); s.failed() {
				return setupFailure("warm-up update", s)
			}
		}
		return nil
	}
	if err := open(); err != nil {
		return nil, err
	}
	return &prepared{
		run: func(d time.Duration) ([]scan, time.Duration) {
			var (
				scans  []scan
				window time.Duration
			)
			start, idx := time.Now(), streamWarmups
			for len(scans) == 0 || time.Since(start) < d {
				if idx++; idx > len(a.stream.Steps) {
					if err := open(); err != nil {
						return append(scans, scan{Update: true, Violations: []string{err.Error()}}), window
					}
					idx = streamWarmups + 1
				}
				t0 := time.Now()
				scans = append(scans, update(idx))
				window += time.Since(t0)
			}
			return scans, window
		},
	}, nil
}

// setupReopen: set-up populates a fresh in-memory store with one
// registration (every pure stage misses and encodes); each sample is a
// fresh session registering against the warm store (every pure stage
// hits and decodes), and must reproduce the populate run bit for bit.
func setupReopen(size int, seed int64) (*prepared, error) {
	a, err := newAnatomy(size, seed, []float64{shiftLo})
	if err != nil {
		return nil, err
	}
	store, err := artifact.New(artifact.Options{})
	if err != nil {
		return nil, err
	}
	cfg := benchConfig(runtime.NumCPU())
	cfg.ArtifactStore = store
	_, populate, s := registerOnce(cfg, a)
	if s.failed() {
		return nil, setupFailure("populate registration", s)
	}
	return &prepared{
		store: store,
		run: func(d time.Duration) ([]scan, time.Duration) {
			return timedLoop(d, func() scan {
				hits := store.Stats().Hits
				_, res, s := registerOnce(cfg, a)
				if res == nil {
					return s
				}
				if got := store.Stats().Hits - hits; got != storeHitsPerReopen {
					s.Violations = append(s.Violations, fmt.Sprintf("store hits grew by %d, want %d", got, storeHitsPerReopen))
				}
				if maxNodalDiff(res.NodeDisplacements, populate.NodeDisplacements) != 0 {
					s.Violations = append(s.Violations, "node displacements differ from the populate run")
				}
				return s
			})
		},
	}, nil
}

// setupServiceMix: a service with one worker per core and a shared
// store, one closed-loop client per core, single-rank jobs. Set-up
// registers both anatomies once through the service so that every timed
// round does the same work: open a new session on an anatomy already in
// the store, register, stream eight updates, close. Rounds alternate
// between the two anatomies, and a client starts a new round until the
// run time has passed.
func setupServiceMix(size int, seed int64) (*prepared, error) {
	shifts := shiftSchedule()[:1+serviceUpdates]
	var anatomies [2]*anatomy
	for i := range anatomies {
		a, err := newAnatomy(size, seed+int64(i)*1000003, shifts)
		if err != nil {
			return nil, err
		}
		anatomies[i] = a
	}
	store, err := artifact.New(artifact.Options{})
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	svc := service.New(service.Options{Workers: clients, ArtifactStore: store})
	cfg := benchConfig(1)

	// round runs one session from open to close and returns its scans.
	round := func(id string, a *anatomy, updates int) []scan {
		c := a.stream.Case
		if err := svc.Open(service.SessionSpec{ID: id, Config: cfg, Preop: c.Preop, PreopLabels: c.PreopLabels}); err != nil {
			return []scan{checkScan(a, 0, false, 0, nil, err)}
		}
		defer func() { _ = svc.CloseSession(id) }() // only fails for an unknown id
		scans := make([]scan, 0, 1+updates)
		for idx := 0; idx <= updates; idx++ {
			submit := svc.Submit
			if idx > 0 {
				submit = svc.SubmitUpdate
			}
			t0 := time.Now()
			var res *core.Result
			job, err := submit(context.Background(), id, a.scanVolume(idx))
			if err == nil {
				res, err = job.Wait(context.Background())
			}
			s := checkScan(a, idx, idx > 0, time.Since(t0), res, err)
			if job != nil {
				s.QueueWaitMS = ms(job.QueueWait())
			}
			scans = append(scans, s)
		}
		return scans
	}

	closeSvc := func() { _ = svc.Close() } // Close only drains the pool
	populate := gather(len(anatomies), func(i int) []scan {
		return round(fmt.Sprintf("populate-%d", i), anatomies[i], 0)
	})
	for _, s := range populate {
		if s.failed() {
			closeSvc()
			return nil, setupFailure("populate registration", s)
		}
	}
	return &prepared{
		store: store,
		close: closeSvc,
		run: func(d time.Duration) ([]scan, time.Duration) {
			start := time.Now()
			scans := gather(clients, func(c int) []scan {
				var mine []scan
				for r := 0; r == 0 || time.Since(start) < d; r++ {
					a := anatomies[(c+r)%len(anatomies)]
					mine = append(mine, round(fmt.Sprintf("c%d-r%d", c, r), a, serviceUpdates)...)
				}
				return mine
			})
			return scans, time.Since(start)
		},
	}, nil
}

// gather runs fn(i) on n goroutines and collects the scans they return.
func gather(n int, fn func(i int) []scan) []scan {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []scan
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scans := fn(i)
			mu.Lock()
			all = append(all, scans...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return all
}
