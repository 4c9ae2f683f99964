package service

// HTTP/JSON API over a Scheduler:
//
//	POST /v1/jobs                 submit a cell; {"experiment","options","wait"}
//	GET  /v1/jobs                 list all jobs in submission order
//	GET  /v1/jobs/{id}            one job's state (and report once finished)
//	GET  /v1/jobs/{id}/progress   live progress: cycles simulated so far
//	GET  /v1/jobs/{id}/report     finished job's run report as HTML
//	GET  /v1/experiments          valid experiment IDs and titles
//	GET  /v1/metrics              telemetry registry snapshot (JSON)
//	GET  /metrics                 the same registry in Prometheus text format
//	GET  /healthz                 liveness probe (200 while the process is up)
//	GET  /readyz                  readiness probe (503 once draining)
//	     /cluster/v1/...          the coordinator's worker protocol, status,
//	                              trace, and federated metrics (cluster
//	                              package), so remote hwgc-worker processes
//	                              can join any daemon
//
// The metrics endpoints are always on: they serve the coordinator's hub,
// which carries the coordinator and result-cache counters.
// Error responses are {"error": "..."}; an unknown experiment additionally
// carries "validExperiments" so clients can self-correct.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"

	"hwgc/internal/cluster"
	"hwgc/internal/experiments"
	"hwgc/internal/report"
)

// SubmitRequest is the POST /v1/jobs body. Options is decoded over
// experiments.DefaultOptions, so partial bodies like {"Quick":true} keep
// the remaining defaults. Wait holds the response until the job finishes
// (bounded by the request context), which is how a client observes a cache
// hit in a single round trip.
type SubmitRequest struct {
	Experiment string          `json:"experiment"`
	Options    json.RawMessage `json:"options,omitempty"`
	Wait       bool            `json:"wait,omitempty"`
}

type errorResponse struct {
	Error            string   `json:"error"`
	ValidExperiments []string `json:"validExperiments,omitempty"`
}

// NewHandler returns the service API over s, the coordinator's protocol
// endpoints included.
func NewHandler(s *Scheduler) http.Handler {
	hub := s.Hub()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(s, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Views())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.View(r.PathValue("id"))
		if !ok {
			writeJobMiss(s, w, r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		type exp struct {
			ID    string `json:"id"`
			Title string `json:"title"`
		}
		runners := s.Runners()
		out := make([]exp, 0, len(runners))
		for _, runner := range runners {
			out = append(out, exp{ID: runner.ID, Title: runner.Title})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		p, ok := s.Progress(r.PathValue("id"))
		if !ok {
			writeJobMiss(s, w, r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		m, ok := s.JobManifest(id)
		if !ok {
			writeJobMiss(s, w, id)
			return
		}
		if m == nil {
			writeJSON(w, http.StatusConflict, errorResponse{Error: "job " + id + " has not finished; poll /v1/jobs/" + id + "/progress"})
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(report.Render(m, "job "+id))
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = hub.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = hub.WritePrometheus(w)
		// Per-worker labeled families cannot live in the fixed-name
		// registry; the coordinator renders them after it.
		_ = s.coord.WritePrometheus(w)
	})
	mux.Handle("/cluster/v1/", cluster.NewHTTPHandler(s.coord))
	// Probe endpoints, plain text by convention: liveness is unconditional
	// (the process answering is the signal); readiness flips to 503 the
	// moment a drain begins so fleets stop routing new submissions here.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("draining\n"))
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	})
	return mux
}

// writeJobMiss answers a job lookup that found nothing: 410 Gone when the
// ID belonged to a finished job since evicted from the bounded table, 404
// when it never existed. Both bodies are JSON, like every other error on
// the API.
func writeJobMiss(s *Scheduler, w http.ResponseWriter, id string) {
	if s.Evicted(id) {
		writeJSON(w, http.StatusGone, errorResponse{Error: "job " + id + " evicted from the finished-job table"})
		return
	}
	writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
}

// withPprof overlays net/http/pprof's handlers on h under /debug/pprof/.
// Opt-in (hwgc-serve -pprof): profiling endpoints expose goroutine stacks
// and heap contents, which an always-on service should not.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

func handleSubmit(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	opts := experiments.DefaultOptions()
	if len(req.Options) > 0 {
		if err := json.Unmarshal(req.Options, &opts); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad options: " + err.Error()})
			return
		}
	}
	job, err := s.Submit(req.Experiment, opts)
	if err != nil {
		var unknown *UnknownExperimentError
		switch {
		case errors.As(err, &unknown):
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error:            err.Error(),
				ValidExperiments: unknown.Valid,
			})
		case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
		return
	}
	if req.Wait {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// Client gave up; report whatever state the job is in.
		}
	}
	v, _ := s.View(job.ID())
	status := http.StatusAccepted
	if v.State.terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
