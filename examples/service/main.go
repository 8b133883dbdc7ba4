// Service: a concurrent intraoperative registration service.
//
// The paper's clinical setting has the simulation running alongside
// surgery, where new scans arrive asynchronously and the surgical team
// must be able to abandon a computation the moment it stops being
// useful. This example runs a registration service with two concurrent
// surgical sessions on a two-worker pool, streams per-stage progress
// as each scan moves through the pipeline, and finally registers a
// scan under an impossibly tight deadline to show the clinical
// degradation policy: when the time budget expires after the surface
// stage, the service returns the rigid-only alignment marked as
// degraded instead of nothing at all.
//
// The service also exposes an HTTP admin surface; the example binds it
// to an ephemeral local port and fetches its own /healthz, /metrics and
// /jobs/{id} to show what an operator (or Prometheus) would see.
//
//	go run ./examples/service
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/phantom"
	"repro/internal/service"
)

func main() {
	ctx := context.Background()
	svc := service.New(service.Options{Workers: 2})
	defer svc.Close()

	admin, err := service.ServeAdmin(svc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	fmt.Printf("admin surface on http://%s/ (metrics, healthz, jobs, pprof)\n\n", admin.Addr())

	// Two operating rooms with different amounts of brain shift.
	type room struct {
		id    string
		shift float64
	}
	rooms := []room{{"or-1", 4}, {"or-2", 7}}
	cases := make(map[string]*phantom.Case)
	for i, r := range rooms {
		p := phantom.DefaultParams(40)
		p.ShiftMagnitude = r.shift
		p.Seed = int64(i + 1)
		c := phantom.Generate(p)
		cases[r.id] = c
		cfg := core.DefaultConfig()
		cfg.SkipRigid = true
		if err := svc.Open(service.SessionSpec{
			ID:          r.id,
			Config:      cfg,
			Preop:       c.Preop,
			PreopLabels: c.PreopLabels,
		}); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("Registering one scan per operating room, concurrently:")
	var wg sync.WaitGroup
	var mu sync.Mutex // interleave whole timelines, not lines
	for _, r := range rooms {
		wg.Add(1)
		go func(r room) {
			defer wg.Done()
			j, err := svc.Submit(ctx, r.id, cases[r.id].Intraop)
			if err != nil {
				log.Fatal(err)
			}
			res, err := j.Wait(ctx)
			if err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			fmt.Printf("\n%s (shift %.0f mm): queued %v, boundary match %.2f -> %.2f mm\n",
				r.id, r.shift, j.QueueWait().Round(time.Millisecond),
				res.RigidMeanAbsDiff, res.MatchMeanAbsDiff)
			fmt.Print(j.Timeline())
		}(r)
	}
	wg.Wait()

	// A follow-up acquisition in or-1, streamed through the incremental
	// update path: the baseline established by the full registration
	// above is reused (mesh, preconditioner factors, displacement seed)
	// and only the boundary patch plus a warm-started solve runs.
	fmt.Println("\nStreaming a follow-up scan through the incremental update path:")
	j, err := svc.SubmitUpdate(ctx, "or-1", cases["or-1"].Intraop)
	if err != nil {
		log.Fatal(err)
	}
	if res, err := j.Wait(ctx); err != nil {
		log.Fatal(err)
	} else if res.Update != nil {
		fmt.Printf("  incremental: %d boundary DOFs patched, pc cache hit %v, %d solve iters (%d saved)\n",
			res.Update.DOFsPatched, res.Update.PCCacheHit,
			res.SolveStats.Iterations, res.Update.IterationsSaved)
	}

	// A scan whose time budget runs out during the FEM solve: the
	// service degrades to the rigid-only alignment rather than leaving
	// the surgeon with nothing. A wall-clock deadline would make this
	// demo machine-dependent, so expiry is pinned to the start of the
	// solve stage instead.
	fmt.Println("\nSame scan with a time budget that expires during the solve:")
	budget := &stageDeadline{done: make(chan struct{})}
	j, err = svc.Submit(budget, "or-1", cases["or-1"].Intraop)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			for _, e := range j.Events() {
				if e.Stage == core.StageSolve {
					budget.expire()
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	switch res, err := j.Wait(ctx); {
	case err != nil:
		fmt.Printf("  aborted: %v\n", err)
	case res.Degraded:
		fmt.Printf("  degraded: %s\n", res.DegradedReason)
		fmt.Printf("  returned rigid-only alignment, boundary match %.2f mm\n",
			res.MatchMeanAbsDiff)
	default:
		fmt.Println("  finished before the budget expired")
	}

	fmt.Println("\nAggregate service metrics:")
	fmt.Print(svc.Metrics().String())

	// What the operator sees: the same aggregates over HTTP.
	fmt.Println("\nAdmin surface, as scraped over HTTP:")
	fmt.Printf("  GET /healthz       -> %s\n", compactJSON(get(admin.Addr(), "/healthz")))
	fmt.Printf("  GET /jobs/%s  ->\n", j.ID)
	for _, line := range strings.Split(strings.TrimRight(get(admin.Addr(), "/jobs/"+j.ID), "\n"), "\n") {
		fmt.Println("   ", line)
	}
	fmt.Println("  GET /metrics (brainsim_* families):")
	sc := bufio.NewScanner(strings.NewReader(get(admin.Addr(), "/metrics")))
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "brainsim_scans_total") ||
			strings.HasPrefix(line, "brainsim_shed_total") ||
			strings.HasPrefix(line, "brainsim_workers_alive") ||
			strings.Contains(line, "brainsim_stage_seconds_count") {
			fmt.Println("   ", line)
		}
	}
}

// compactJSON squeezes pretty-printed JSON onto one line for the demo
// output.
func compactJSON(s string) string {
	fields := strings.Fields(s)
	return strings.Join(fields, " ")
}

// get fetches one admin endpoint, fatally on any error — this is a
// demo, not a client library.
func get(addr, path string) string {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(body)
}

// stageDeadline is a context.Context whose deadline "expires" when
// expire is called, pinning the expiry to a pipeline stage rather than
// to wall-clock time so the degradation demo behaves the same on any
// machine.
type stageDeadline struct {
	done chan struct{}
	once sync.Once
}

func (c *stageDeadline) expire() { c.once.Do(func() { close(c.done) }) }

func (c *stageDeadline) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stageDeadline) Done() <-chan struct{}       { return c.done }
func (c *stageDeadline) Value(any) any               { return nil }

func (c *stageDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}
