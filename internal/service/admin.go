package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// AdminHandler builds the service's admin HTTP surface:
//
//	/metrics                      Prometheus text exposition of the obs registry
//	/healthz                      liveness: are pool workers running
//	/readyz                       readiness: is there queue headroom to accept scans
//	/jobs                         JSON list of retained jobs (oldest first)
//	/jobs/{id}                    JSON status of one job, live stage timeline included
//	/artifacts                    JSON stats of the shared artifact cache (404 when none configured)
//	/sessions                     JSON list of open sessions with flight-recorder state
//	/sessions/{id}/flightrecorder JSONL of the session's live flight-recorder ring;
//	                              ?dump=last serves the last automatic anomaly dump instead
//	/debug/pprof/                 runtime profiling (CPU, heap, goroutines, ...)
//
// The handler holds only the *Service; mount it wherever the deployment
// wants (ServeAdmin below binds it to its own listener).
func AdminHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Point-in-time gauges and the runtime sample are refreshed at
		// scrape time, so the exposition reflects the service as it is
		// now, not as it was at the last state change.
		s.SampleRuntime()
		reg := s.Registry()
		reg.Gauge(obs.MetricQueueDepth).Set(float64(s.QueueDepth()))
		reg.Gauge(obs.MetricQueueCapacity).Set(float64(s.QueueCapacity()))
		reg.Gauge(obs.MetricWorkersAlive).Set(float64(s.WorkersAlive()))
		reg.Handler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		alive := s.WorkersAlive()
		m := s.Metrics()
		status := http.StatusOK
		if alive == 0 {
			status = http.StatusServiceUnavailable
		}
		shedRate := 0.0
		if total := m.Scans + m.Shed; total > 0 {
			shedRate = float64(m.Shed) / float64(total)
		}
		writeJSON(w, status, map[string]any{
			"ok":            alive > 0,
			"workers_alive": alive,
			"queue_depth":   s.QueueDepth(),
			"queue_cap":     s.QueueCapacity(),
			"shed_rate":     shedRate,
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Ready means a Submit right now would be accepted: workers are
		// alive and the queue has headroom.
		depth, capacity := s.QueueDepth(), s.QueueCapacity()
		ready := s.WorkersAlive() > 0 && depth < capacity
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"ready":       ready,
			"queue_depth": depth,
			"queue_cap":   capacity,
		})
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		out := make([]JobStatus, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.Status())
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/jobs/")
		if id == "" || strings.Contains(id, "/") {
			http.NotFound(w, r)
			return
		}
		j, err := s.Job(id)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("/artifacts", func(w http.ResponseWriter, r *http.Request) {
		store := s.ArtifactStore()
		if store == nil {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": "no artifact store configured"})
			return
		}
		writeJSON(w, http.StatusOK, store.Stats())
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Sessions())
	})
	mux.HandleFunc("/sessions/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
		id, sub, found := strings.Cut(rest, "/")
		if !found || id == "" || sub != "flightrecorder" {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("dump") == "last" {
			// The frozen anomaly dump, JSON-wrapped with its trigger
			// metadata; 404 distinguishes "no anomaly yet" from an
			// unknown session.
			d, err := s.SessionLastDump(id)
			if err != nil {
				writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
				return
			}
			if d == nil {
				writeJSON(w, http.StatusNotFound, map[string]any{
					"error": fmt.Sprintf("session %q has no flight-recorder dump", id)})
				return
			}
			writeJSON(w, http.StatusOK, d)
			return
		}
		recs, err := s.SessionFlightRecords(id)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = obs.WriteSpans(w, recs)
	})
	obs.RegisterPprof(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Admin is a running admin HTTP server bound to its own listener.
type Admin struct {
	ln  net.Listener
	srv *http.Server
	// done is closed when the serve goroutine exits; serveErr carries
	// its terminal error (nil on the ErrServerClosed shutdown path) and
	// is published to Close through the close(done) happens-before edge.
	done     chan struct{}
	serveErr error
}

// ServeAdmin starts the admin surface on addr (e.g. "127.0.0.1:8077",
// or ":0" for an ephemeral port) and serves until Close. It returns as
// soon as the listener is bound, so Addr is immediately meaningful.
func ServeAdmin(s *Service, addr string) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: admin listen %s: %w", addr, err)
	}
	a := &Admin{ln: ln, srv: &http.Server{Handler: AdminHandler(s)}, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		// ErrServerClosed after Close is the normal shutdown path; any
		// other serve error just ends the admin surface, never the
		// registration service itself — it surfaces on Close.
		if err := a.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			a.serveErr = fmt.Errorf("service: admin serve: %w", err)
		}
	}()
	return a, nil
}

// Addr returns the bound address ("127.0.0.1:43817").
func (a *Admin) Addr() string {
	return a.ln.Addr().String()
}

// Close stops the admin server, waits for the serve goroutine to
// exit, and reports any abnormal serve error it died with. The
// registration service is unaffected.
func (a *Admin) Close() error {
	err := a.srv.Close()
	<-a.done
	if a.serveErr != nil {
		return a.serveErr
	}
	return err
}
