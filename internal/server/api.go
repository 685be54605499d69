package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// apiError is the structured JSON error envelope every rejection
// carries: {"error":{"code":"queue_full","message":"..."}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// writeAdmissionError maps the typed admission errors onto HTTP
// statuses and stable error codes.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.met.rejectedQueueFull.Add(1)
		writeError(w, http.StatusTooManyRequests, "queue_full", "%v", err)
	case errors.Is(err, ErrTooManyRuns):
		s.met.rejectedTooManyRuns.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, "too_many_runs", "%v", err)
	case errors.Is(err, ErrDraining):
		s.met.rejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/figures", s.handleFigures)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/trace/{name...}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/runs/{key}", s.handleRunLookup)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
}

// handleFigures lists the reproducible experiments with their
// admission-control run estimates.
func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	type fig struct {
		ID            string `json:"id"`
		EstimatedRuns int    `json:"estimated_runs"`
	}
	ids := experiments.FigureIDs()
	out := make([]fig, 0, len(ids))
	for _, id := range ids {
		n, _ := experiments.EstimatedRuns(id)
		out = append(out, fig{ID: id, EstimatedRuns: n})
	}
	writeJSON(w, http.StatusOK, map[string]any{"figures": out})
}

// handleSubmit is the admission-controlled submission path: validate,
// size against MaxRunsPerJob, then push onto the bounded queue. Every
// rejection is a typed structured error; nothing is silently dropped.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.stopping.Load() {
		s.writeAdmissionError(w, ErrDraining)
		return
	}
	var spec SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.met.rejectedBadRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", "decode body: %v", err)
		return
	}
	est, err := admit(spec)
	if err != nil {
		s.met.rejectedBadRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if est > s.cfg.MaxRunsPerJob {
		s.writeAdmissionError(w, fmt.Errorf("%w: %d estimated runs > limit %d",
			ErrTooManyRuns, est, s.cfg.MaxRunsPerJob))
		return
	}

	s.mu.Lock()
	j := s.newJobLocked(spec, est)
	if err := s.queue.push(j); err != nil {
		// Roll the registration back: the job was never admitted.
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.writeAdmissionError(w, err)
		return
	}
	status := s.statusLocked(j)
	s.mu.Unlock()
	s.met.admitted.Add(1)
	s.cfg.Logf("job %s admitted: figures=%v (est %d runs)", j.id, spec.Figures, est)
	w.Header().Set("Location", "/v1/sweeps/"+j.id)
	writeJSON(w, http.StatusAccepted, status)
}

// jobStatus is the wire form of a job.
type jobStatus struct {
	ID            string       `json:"id"`
	State         jobState     `json:"state"`
	Spec          SweepRequest `json:"spec"`
	EstimatedRuns int          `json:"estimated_runs"`
	QueuePosition int          `json:"queue_position,omitempty"`
	Created       time.Time    `json:"created"`
	Started       *time.Time   `json:"started,omitempty"`
	Finished      *time.Time   `json:"finished,omitempty"`
	RunsDone      int          `json:"runs_done"`
	RunsCached    int          `json:"runs_cached"`
	Tables        int          `json:"tables,omitempty"`
	Traces        []string     `json:"traces,omitempty"`
	Error         string       `json:"error,omitempty"`
	Events        int          `json:"events"`
}

// statusLocked snapshots a job's wire form. Caller holds s.mu.
func (s *Server) statusLocked(j *job) jobStatus {
	st := jobStatus{
		ID:            j.id,
		State:         j.state,
		Spec:          j.spec,
		EstimatedRuns: j.est,
		Created:       j.created,
		RunsDone:      j.runsDone,
		RunsCached:    j.runsCached,
		Tables:        len(j.tables),
		Error:         j.errMsg,
		Events:        len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == stateQueued {
		st.QueuePosition = s.queue.position(j.id)
	}
	for _, nt := range j.traces {
		st.Traces = append(st.Traces, nt.name)
	}
	return st
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "not_found", "no sweep %q", id)
		return
	}
	status := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

// handleCancel cancels a job: a queued job is removed from the queue
// mid-line; a running job has its sweep context canceled (the engine
// stops at the next cancellation point and reports partial progress).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "not_found", "no sweep %q", id)
		return
	}
	if terminal(j.state) {
		status := s.statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, status) // idempotent
		return
	}
	j.cancelAsk = true
	if s.queue.remove(id) {
		// Still queued: it never starts; finalize it here.
		s.finishLocked(j, stateCanceled, "")
	} else if j.cancel != nil {
		s.appendEventLocked(j, "cancel_requested", nil)
		j.cancel()
	}
	// Else the worker popped it but has not started it: runJob sees
	// cancelAsk and finalizes without running.
	status := s.statusLocked(j)
	s.mu.Unlock()
	s.cfg.Logf("job %s cancel requested", id)
	writeJSON(w, http.StatusOK, status)
}

// handleResults serves a finished job's tables: by default the exact
// byte stream experiments.FprintTables renders for the same spec through
// the library (the API-vs-library byte-identity contract; recnsim adds
// a blank line after each table), or structured JSON with ?format=json.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no sweep %q", id)
		return
	}
	s.mu.Lock()
	state, errMsg, tables := j.state, j.errMsg, j.tables
	s.mu.Unlock()
	switch state {
	case stateDone:
	case stateFailed:
		writeError(w, http.StatusConflict, "sweep_failed", "%s", errMsg)
		return
	case stateCanceled:
		writeError(w, http.StatusConflict, "sweep_canceled", "sweep %s was canceled", id)
		return
	default:
		writeError(w, http.StatusConflict, "not_ready", "sweep %s is %s", id, state)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, map[string]any{"tables": tables})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	experiments.FprintTables(w, tables)
}

// handleTrace streams one run's flight-recorder export as Perfetto /
// chrome://tracing JSON. Trace names are listed in the job status
// ("<figure>/<mechanism>").
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	j, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no sweep %q", id)
		return
	}
	s.mu.Lock()
	state := j.state
	var rec *namedTrace
	var have []string
	for i := range j.traces {
		have = append(have, j.traces[i].name)
		if j.traces[i].name == name {
			rec = &j.traces[i]
		}
	}
	s.mu.Unlock()
	if !terminal(state) {
		writeError(w, http.StatusConflict, "not_ready", "sweep %s is %s", id, state)
		return
	}
	if rec == nil {
		writeError(w, http.StatusNotFound, "not_found",
			"no trace %q in sweep %s (have %v; submit with \"trace\":true)", name, id, have)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rec.rec.WriteChromeTrace(w); err != nil {
		s.cfg.Logf("job %s: stream trace %s: %v", id, name, err)
	}
}

// handleRunLookup serves a single cached run report by its spec hash
// (the 16-hex-digit content address `recnsim -cache` files use), so
// clients can fetch raw per-run data without resubmitting a sweep.
func (s *Server) handleRunLookup(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeError(w, http.StatusServiceUnavailable, "no_cache", "daemon started without -cache")
		return
	}
	key := r.PathValue("key")
	hash, err := strconv.ParseUint(key, 16, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "key %q: want 16 hex digits (a run spec hash)", key)
		return
	}
	specKey, report, ok := s.cache.Raw(hash)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no cached run %016x", hash)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Run-Spec", specKey)
	w.Write(report)
}
