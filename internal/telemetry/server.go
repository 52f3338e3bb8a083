// Package telemetry serves live mining observability over HTTP: a
// hand-rolled Prometheus text endpoint and a JSON progress endpoint, both
// rendered from metrics.Snapshot — the same schema `fpm -stats json`
// emits — plus net/http/pprof for on-demand profiles. It has no external
// dependencies: the Prometheus exposition format is plain text, so no
// client library is needed.
//
// The server is recorder-centric, not run-centric: SetRecorder swaps in
// whichever run should be observed next, and every scrape snapshots the
// current recorder (metrics.Recorder.Snapshot is safe against concurrent
// mining). Two drivers use it: `fpm -telemetry-addr` observes the single
// CLI run, and `fpm serve` observes a queue of submitted jobs. The package
// only exposes state it is handed: the job scheduler lives in
// internal/jobs (AttachJobs serves its /jobs API and gauges) and the
// serving caches in internal/servecache (AttachCaches renders their
// census).
package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"fpm/internal/jobs"
	"fpm/internal/metrics"
	"fpm/internal/servecache"
)

// Server exposes one mining process's observability endpoints:
//
//	GET /metrics   — Prometheus text exposition of the current Snapshot
//	GET /progress  — JSON progress report (see Progress)
//	GET /healthz   — liveness probe
//	    /debug/pprof/... — the standard Go profiling handlers
//
// and, when a job store is attached:
//
//	POST   /jobs     — submit a mining job
//	GET    /jobs     — list jobs
//	GET    /jobs/{id} — one job's state and result summary
//	GET    /jobs/{id}/events — the job's flight-recorder timeline
//	DELETE /jobs/{id} — cancel a queued or running job
type Server struct {
	mu        sync.Mutex
	rec       *metrics.Recorder
	store     *jobs.Store
	caches    *servecache.Caches
	persister *servecache.Persister
	srv       *http.Server
}

// NewServer returns a server with no recorder attached; scrapes report an
// empty snapshot until SetRecorder.
func NewServer() *Server { return &Server{} }

// SetRecorder swaps the recorder scrapes observe. Safe to call while the
// server is live and the previous run is still mining.
func (s *Server) SetRecorder(rec *metrics.Recorder) {
	s.mu.Lock()
	s.rec = rec
	s.mu.Unlock()
}

// Recorder returns the recorder scrapes currently observe (may be nil).
func (s *Server) Recorder() *metrics.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// AttachJobs wires a job store into the /jobs endpoints. Call before
// Handler/Start; submitted jobs route their recorders through SetRecorder.
func (s *Server) AttachJobs(st *jobs.Store) { s.store = st }

// AttachCaches wires the serving caches' census into /metrics as the
// fpm_cache_* family, and the snapshot persister's (nil when the server
// is not durable) as fpm_cache_persist_*. Call before Handler/Start.
func (s *Server) AttachCaches(c *servecache.Caches, p *servecache.Persister) {
	s.caches, s.persister = c, p
}

// Handler returns the server's routing table, for tests and embedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if s.store != nil {
		mux.HandleFunc("/jobs", s.handleJobs)
		mux.HandleFunc("/jobs/", s.handleJob)
	}
	return mux
}

// Start listens on addr and serves in a background goroutine, returning
// the bound address (useful with ":0" in tests). Shut down with Shutdown.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown gracefully stops a Start-ed server.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rec := s.Recorder()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, rec.Snapshot(), rec.Running())
	if s.store != nil {
		_ = WriteJobMetrics(w, s.store.Stats())
		_ = WriteJobHistograms(w, s.store.Histograms())
	}
	if s.caches != nil {
		var ps *servecache.PersistStats
		if s.persister != nil {
			st := s.persister.Stats()
			ps = &st
		}
		_ = WriteCacheMetrics(w, s.caches.Stats(), ps)
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rec := s.Recorder()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ProgressFrom(rec.Snapshot(), rec.Running()))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req jobs.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		job, err := s.store.Submit(req)
		if err != nil {
			// Backpressure is a first-class response: a full queue is 429
			// with a JSON body carrying the current depth so load clients
			// can distinguish "slow down" from "going away" (503 on close).
			code := http.StatusServiceUnavailable
			if errors.Is(err, jobs.ErrQueueFull) {
				code = http.StatusTooManyRequests
			}
			js := s.store.Stats()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error":     err.Error(),
				"queued":    js.Queued,
				"queue_cap": js.QueueCap,
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(job)
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.store.List())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if idStr, ok := strings.CutSuffix(rest, "/events"); ok {
		// GET /jobs/{id}/events — the job's flight-recorder timeline.
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			http.Error(w, "bad job id", http.StatusBadRequest)
			return
		}
		log, ok := s.store.Events(id)
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(log)
		return
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return
	}
	var (
		job jobs.Job
		ok  bool
	)
	switch r.Method {
	case http.MethodGet:
		job, ok = s.store.Get(id)
	case http.MethodDelete:
		// Cancellation is cooperative: a running job's record may still say
		// "running" here — it flips to "cancelled" once the kernels unwind.
		job, ok = s.store.Cancel(id)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(job)
}
