package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"

	"repro/internal/gpu"
	"repro/internal/maintenance"
	"repro/internal/online"
	"repro/internal/scheduler"
)

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs           submit a job (JobSpec body) → JobView
//	GET    /v1/jobs           list jobs → {"jobs": [JobView...]}
//	GET    /v1/jobs/{id}      job status → JobView
//	DELETE /v1/jobs/{id}      cancel → JobView
//	GET    /v1/metrics        counters → Metrics
//	POST   /v1/drain          stop admitting jobs → Metrics
//	GET    /v1/fleet          pool availability → {"pools": [PoolView...]}
//	POST   /v1/fleet/preempt  reclaim devices (fleetRequest body) → PoolView
//	POST   /v1/fleet/restore  return devices (fleetRequest body) → PoolView
//	POST   /v1/maintenance    start a rolling maintenance (maintenance.Request) → Status
//	GET    /v1/maintenance    current/last operation → maintenance.Status
//	DELETE /v1/maintenance    abort (rolls back the in-flight domain) → Status
//	GET    /v1/healthz        liveness → {"status": "ok"}
//	GET    /metrics           Prometheus text exposition of the registry
//
// With Config.Pprof set, Go's net/http/pprof handlers mount under
// /debug/pprof/ and the registry exports Go runtime metrics.
//
// With Config.Online wired, the streaming request tier mounts too:
//
//	POST   /v1/requests             submit (online.RequestSpec) → RequestView
//	GET    /v1/requests             list → {"requests": [RequestView...]}
//	GET    /v1/requests/{id}        status → RequestView
//	DELETE /v1/requests/{id}        cancel → RequestView
//	GET    /v1/requests/{id}/stream NDJSON token events until terminal
//
// Errors are {"error": "..."} with 400 (malformed), 404 (unknown job),
// 422 (admission rejection), 429 (queue full), or 503 (draining).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/requests", s.handleRequestSubmit)
	mux.HandleFunc("GET /v1/requests", s.handleRequestList)
	mux.HandleFunc("GET /v1/requests/{id}", s.handleRequestStatus)
	mux.HandleFunc("DELETE /v1/requests/{id}", s.handleRequestCancel)
	mux.HandleFunc("GET /v1/requests/{id}/stream", s.handleRequestStream)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("POST /v1/fleet/preempt", s.handleFleetPreempt)
	mux.HandleFunc("POST /v1/fleet/restore", s.handleFleetRestore)
	mux.HandleFunc("POST /v1/maintenance", s.handleMaintenanceStart)
	mux.HandleFunc("GET /v1/maintenance", s.handleMaintenanceStatus)
	mux.HandleFunc("DELETE /v1/maintenance", s.handleMaintenanceAbort)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", s.tel.reg.Handler())
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps a submission/lookup error (job or online request) to an
// HTTP status.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownJob), errors.Is(err, online.ErrUnknownRequest):
		status = http.StatusNotFound
	case errors.Is(err, ErrRejected), errors.Is(err, online.ErrRejected):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, ErrQueueFull), errors.Is(err, online.ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, maintenance.ErrNone):
		status = http.StatusNotFound
	case errors.Is(err, maintenance.ErrActive):
		status = http.StatusConflict
	case errors.Is(err, maintenance.ErrInfeasible):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed job spec: " + err.Error()})
		return
	}
	v, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]JobView{"jobs": s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	writeJSON(w, http.StatusOK, s.Metrics())
}

// fleetRequest is the body of the fleet preempt/restore endpoints.
type fleetRequest struct {
	// Pool names the resource; Class is the device class (e.g.
	// "V100-32G"); Count the devices to reclaim or return.
	Pool  string `json:"pool"`
	Class string `json:"class"`
	Count int    `json:"count"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]PoolView{"pools": s.FleetViews()})
}

func (s *Server) handleFleetPreempt(w http.ResponseWriter, r *http.Request) {
	s.handleFleetMutation(w, r, s.fleet.Preempt)
}

func (s *Server) handleFleetRestore(w http.ResponseWriter, r *http.Request) {
	s.handleFleetMutation(w, r, s.fleet.Restore)
}

func (s *Server) handleMaintenanceStart(w http.ResponseWriter, r *http.Request) {
	var req maintenance.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed maintenance request: " + err.Error()})
		return
	}
	st, err := s.StartMaintenance(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleMaintenanceStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.MaintenanceStatus()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMaintenanceAbort(w http.ResponseWriter, r *http.Request) {
	st, err := s.AbortMaintenance()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFleetMutation(w http.ResponseWriter, r *http.Request, apply func(string, gpu.DeviceClass, int) (scheduler.View, error)) {
	var req fleetRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed fleet request: " + err.Error()})
		return
	}
	v, err := apply(req.Pool, gpu.DeviceClass(req.Class), req.Count)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, poolView(v))
}
