package service

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/phantom"
)

// streamCase generates a baseline scan plus a later scan of the same
// case with a grown brain shift — the streaming acquisition pattern the
// update path exists for.
func streamCase(n int, seed int64) (*phantom.Case, *phantom.Case) {
	p1 := phantom.DefaultParams(n)
	p1.NoiseStd = 2
	p1.ShiftMagnitude = 3
	p1.Seed = seed
	p2 := p1
	p2.ShiftMagnitude = 5
	return phantom.Generate(p1), phantom.Generate(p2)
}

// TestServiceUpdateFlow drives the first-class update job kind end to
// end: open with a SessionSpec, register the baseline, then stream an
// update and check the job surface and the registry reflect the
// incremental path.
func TestServiceUpdateFlow(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c1, c2 := streamCase(24, 11)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c1.Preop, PreopLabels: c1.PreopLabels}); err != nil {
		t.Fatal(err)
	}
	if _, err := wait(context.Background(), svc.Submit, "or", c1.Intraop); err != nil {
		t.Fatal(err)
	}

	j, err := svc.SubmitUpdate(context.Background(), "or", c2.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if j.Kind != JobUpdate {
		t.Errorf("job kind = %q, want %q", j.Kind, JobUpdate)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental || res.Update == nil {
		t.Fatal("update job did not take the incremental path")
	}
	if !res.Update.WarmStarted || !res.Update.PCCacheHit {
		t.Fatalf("update did not reuse the baseline: %+v", res.Update)
	}
	if j.FellBack() {
		t.Error("update with a baseline reported FellBack")
	}
	st := j.Status()
	if st.Kind != "update" || st.FellBack {
		t.Errorf("job status kind=%q fellBack=%v, want update/false", st.Kind, st.FellBack)
	}

	if o, u, f := outcomes(svc), updates(svc), count(svc, obs.MetricUpdateFallbacks); o["completed"] != 2 || u != 1 || f != 0 {
		t.Errorf("outcomes %v, %d updates, %d fallbacks; want 2 completed scans, 1 update, no fallback", o, u, f)
	}
	hit, miss := count(svc, obs.MetricPCCache, obs.Label{Key: "result", Value: "hit"}),
		count(svc, obs.MetricPCCache, obs.Label{Key: "result", Value: "miss"})
	if hit != 1 || miss != 0 {
		t.Errorf("pc cache hit=%d miss=%d, want 1/0", hit, miss)
	}
	if saved := count(svc, obs.MetricWarmItersSaved); saved != res.Update.IterationsSaved {
		t.Errorf("%s = %d, want %d", obs.MetricWarmItersSaved, saved, res.Update.IterationsSaved)
	}
}

// updates counts the delivered scans that ran the incremental path.
func updates(svc *Service) int {
	return int(svc.Registry().Histogram(obs.MetricScanSeconds, obs.Label{Key: "kind", Value: string(JobUpdate)}).Summary().Count)
}

// TestServiceUpdateFallsBackWithoutBaseline: an update submitted before
// any full registration must run as a cold registration, be marked
// FellBack, and count in brainsim_update_fallbacks_total — the streaming client
// never sees an error for being first.
func TestServiceUpdateFallsBackWithoutBaseline(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	c1, c2 := streamCase(24, 12)
	if err := svc.Open(SessionSpec{ID: "or", Config: fastConfig(), Preop: c1.Preop, PreopLabels: c1.PreopLabels}); err != nil {
		t.Fatal(err)
	}

	res, err := wait(context.Background(), svc.SubmitUpdate, "or", c1.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental {
		t.Fatal("first update reported incremental without a baseline")
	}
	jobs := svc.Jobs()
	if len(jobs) != 1 || !jobs[0].FellBack() {
		t.Fatalf("fallback not recorded on the job: %+v", jobs)
	}
	if f, u := count(svc, obs.MetricUpdateFallbacks), updates(svc); f != 1 || u != 0 {
		t.Errorf("%d fallbacks, %d updates; want 1 and 0", f, u)
	}

	// The fallback established the baseline: the next update is real.
	res2, err := wait(context.Background(), svc.SubmitUpdate, "or", c2.Intraop)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Incremental {
		t.Fatal("second update did not take the incremental path")
	}
	if f, u := count(svc, obs.MetricUpdateFallbacks), updates(svc); f != 1 || u != 1 {
		t.Errorf("%d fallbacks, %d updates; want 1 and 1", f, u)
	}
}

// TestSessionSpecValidate reports every defect at once.
func TestSessionSpecValidate(t *testing.T) {
	c, _ := streamCase(24, 14)
	bad := SessionSpec{Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}
	bad.Config.KNN = 0
	bad.Config.Solver.Partition = par.Even(12, 2)
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{"ID must be non-empty", "Solver.Partition", "KNN"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("validation error %q missing %q", err, want)
		}
	}
	good := SessionSpec{ID: "or", Config: fastConfig(), Preop: c.Preop, PreopLabels: c.PreopLabels}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}
