package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	obsserve "github.com/uteda/gmap/internal/obs/serve"
	"github.com/uteda/gmap/internal/profiler"
	httpserve "github.com/uteda/gmap/internal/serve"
	"github.com/uteda/gmap/internal/serve/queue"
	"github.com/uteda/gmap/internal/serve/store"
	"github.com/uteda/gmap/internal/trace"
)

// Body size limits per endpoint: raw traces dominate, job specs are
// tiny.
const (
	maxProfileBody = 64 << 20
	maxTraceBody   = 256 << 20
	maxJobBody     = 1 << 20
)

// Handler builds the service's HTTP mux. Alongside the /v1 API it
// mounts the sweep workers' surface (/dist/v1/, /fleet/) and the shared
// observability surface (/metrics, /progress, /trace, /debug/pprof), so
// one port serves every plane.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/profiles", s.handlePutProfile)
	mux.HandleFunc("GET /v1/profiles/{hash}", s.handleGetProfile)
	mux.HandleFunc("POST /v1/traces", s.handlePutTrace)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleJobProgress)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	// Remote sweep workers dial the service itself: /dist/v1/ routes them
	// to the sweep being coordinated, and /fleet/ federates their pushes.
	mux.Handle("/dist/v1/", s.sweeps.Handler())
	mux.Handle("/fleet/", s.fleet)
	mux.Handle("/", obsserve.Handler(obsserve.Options{
		Registry: s.o.Obs,
		Tracer:   s.o.Tracer,
		Progress: s.progressSnapshot,
		Ready:    s.ready,
	}))
	return httpserve.Instrument(s.o.Obs, "serve", mux)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// profileResponse answers profile and trace uploads.
type profileResponse struct {
	Profile      string `json:"profile"`
	Deduplicated bool   `json:"deduplicated"`
	Name         string `json:"name,omitempty"`
	Requests     uint64 `json:"requests,omitempty"`
}

// handlePutProfile stores a profile JSON body under its content hash.
func (s *Service) handlePutProfile(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxProfileBody)
	p, err := profiler.ReadJSON(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode profile: %w", err))
		return
	}
	hash, existed, err := s.st.PutProfile(p)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, profileResponse{
		Profile: hash, Deduplicated: existed,
		Name: p.Name, Requests: p.TotalRequests,
	})
}

// handleGetProfile returns a stored profile by content hash.
func (s *Service) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	p, err := s.st.GetProfile(r.PathValue("hash"))
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = p.WriteJSON(w)
}

// handlePutTrace profiles an uploaded kernel trace (binary warp-trace by
// default, ?format=text for the text codec) server-side and stores the
// resulting profile — the "clone my workload" entry point for clients
// holding raw traces.
func (s *Service) handlePutTrace(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxTraceBody)
	var (
		k   *trace.KernelTrace
		err error
	)
	switch f := r.URL.Query().Get("format"); f {
	case "", "binary":
		k, err = trace.ReadBinary(body)
	case "text":
		k, err = trace.ReadText(body)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown trace format %q (binary or text)", f))
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode trace: %w", err))
		return
	}
	cfg := profiler.DefaultConfig()
	if ls := r.URL.Query().Get("line_size"); ls != "" {
		n, perr := strconv.Atoi(ls)
		if perr != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad line_size %q", ls))
			return
		}
		cfg.LineSize = uint64(n)
	}
	cfg.Obs = s.o.Obs
	p, err := profiler.ProfileKernel(k, cfg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("profile trace: %w", err))
		return
	}
	hash, existed, err := s.st.PutProfile(p)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, profileResponse{
		Profile: hash, Deduplicated: existed,
		Name: p.Name, Requests: p.TotalRequests,
	})
}

// handleSubmit admits a job. Responses: 200 for cache hits and joined
// in-flight duplicates, 202 for fresh admissions, 400 for bad specs,
// 429 + Retry-After when the backlog is full.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode job spec: %w", err))
		return
	}
	if err := spec.Normalize(s.st); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	js, admitted, cached, err := s.submit(spec)
	switch {
	case errors.Is(err, queue.ErrFull):
		st := s.q.Stats()
		// Rough drain-time hint: backlog depth over worker count,
		// floored at one second.
		retry := st.Queued/max(st.Workers, 1) + 1
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErr(w, http.StatusTooManyRequests, fmt.Errorf("queue full (%d queued, %d running): retry later", st.Queued, st.Running))
		return
	case errors.Is(err, queue.ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	code := http.StatusOK
	if admitted {
		code = http.StatusAccepted
	}
	v := js.view()
	v.Cached = v.Cached || cached
	writeJSON(w, code, v)
}

// handleListJobs returns every known job, ordered by id so the listing
// is deterministic.
func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.jobs))
	for _, js := range s.jobs {
		views = append(views, js.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].Job < views[j].Job })
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": views})
}

func (s *Service) job(id string) (*jobState, bool) {
	s.mu.Lock()
	js, ok := s.jobs[id]
	s.mu.Unlock()
	return js, ok
}

func (s *Service) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	js, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, js.view())
}

// handleJobResult streams the stored result of a finished job.
func (s *Service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	js, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	v := js.view()
	if v.Status != StatusDone {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", js.id, v.Status))
		return
	}
	data, ok, err := s.st.GetResult(js.profileHash, js.configHash)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("result for job %s missing from store", js.id))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(data)
}

// handleJobProgress reports a coordinating sweep's status (dist.Status:
// merged and total jobs, parts, leases and workers).
func (s *Service) handleJobProgress(w http.ResponseWriter, r *http.Request) {
	js, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	v := js.view()
	resp := map[string]interface{}{"job": js.id, "status": v.Status}
	if p := js.progress(); p != nil {
		resp["progress"] = p
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCancel cancels a queued or running job.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Render the job cancel acted on: a resubmission may hold the id by
	// the time cancel returns.
	js := s.cancel(id)
	if js == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, js.view())
}

// progressSnapshot backs the service-wide /progress endpoint: queue
// census, per-status job counts, and each coordinating sweep's status.
func (s *Service) progressSnapshot() interface{} {
	type runningJob struct {
		Job        string      `json:"job"`
		Kind       string      `json:"kind"`
		Experiment string      `json:"experiment,omitempty"`
		Progress   interface{} `json:"progress,omitempty"`
	}
	s.mu.Lock()
	states := make([]*jobState, 0, len(s.jobs))
	for _, js := range s.jobs {
		states = append(states, js)
	}
	s.mu.Unlock()
	counts := map[string]int{}
	var running []runningJob
	for _, js := range states {
		v := js.view()
		counts[v.Status]++
		if v.Status == StatusRunning {
			running = append(running, runningJob{
				Job: v.Job, Kind: v.Kind,
				Experiment: v.Experiment, Progress: js.progress(),
			})
		}
	}
	sort.Slice(running, func(i, j int) bool { return running[i].Job < running[j].Job })
	return map[string]interface{}{
		"queue":   s.q.Stats(),
		"jobs":    counts,
		"running": running,
	}
}

// statusOf maps store errors onto HTTP statuses.
func statusOf(err error) int {
	if errors.Is(err, store.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}
