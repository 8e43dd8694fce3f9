package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"eqasm"
	"eqasm/internal/service"
	"eqasm/internal/wire"
)

// BatchBackend is the contract BackendServer serves: the public
// eqasm.Backend submit surface plus the job lookup, server-side program
// resolution and introspection the wire protocol needs. The coordinator
// implements it; so could any other router over eqasm.Backend.
type BatchBackend interface {
	// Submit admits a batch (the eqasm.Backend method).
	Submit(ctx context.Context, reqs ...eqasm.RunRequest) (*eqasm.Job, error)
	// Job returns a submitted job by ID, including recently finished
	// ones.
	Job(id string) (*eqasm.Job, bool)
	// Resolve turns one decoded wire request into a run request bound
	// to a program (assembling eQASM or compiling circuit text). The
	// body has passed decodeBatch's checks.
	Resolve(item wire.Request) (eqasm.RunRequest, error)
	// StatsPayload returns the backend's counters; marshaled verbatim
	// as the /v1/stats payload. (Named so implementations keep a typed
	// Stats method of their own.)
	StatsPayload() any
	// Draining reports the backend is refusing new work (healthz 503).
	Draining() bool
}

// BackendServer is the HTTP/JSON front end over a BatchBackend: it
// speaks the same /v1/batches wire protocol as Server — so the public
// eqasm.Client composes with it unchanged — but routes submissions
// through an eqasm.Backend-shaped tier (cmd/eqasm-coord) instead of an
// in-process service.
//
// Endpoints:
//
//	POST   /v1/batches      submit N programs as one unit
//	GET    /v1/batches/{id} batch status with per-request results
//	DELETE /v1/batches/{id} cancel a batch
//	GET    /v1/stats        backend counters
//	GET    /healthz         liveness probe (503 while draining)
//
// Requests arrive in the wire.Batch shape, decoded and checked by the
// same function as Server's, so parameter bindings, fusion and backend
// overrides reach the backend intact; whether a request form (such as
// a "circuit" gate list) is served is the backend's call in Resolve.
type BackendServer struct {
	backend BatchBackend
	start   time.Time
}

// NewBackend builds a BackendServer over b.
func NewBackend(b BatchBackend) *BackendServer {
	return &BackendServer{backend: b, start: time.Now()}
}

// Handler builds the route table.
func (s *BackendServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleGetBatch)
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleCancelBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *BackendServer) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	body, _, ok := decodeBatch(w, r)
	if !ok {
		return
	}
	reqs := make([]eqasm.RunRequest, len(body.Requests))
	for i, item := range body.Requests {
		req, err := s.backend.Resolve(item)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
			return
		}
		reqs[i] = req
	}
	// Same lifetime contract as Server: a waiting client that
	// disconnects cancels its batch; an async batch outlives the request
	// and is cancelled via DELETE.
	ctx := context.Background()
	if body.Wait {
		ctx = r.Context()
	}
	job, err := s.backend.Submit(ctx, reqs...)
	switch {
	case err == nil:
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	default:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if body.Wait {
		if _, err := job.Wait(r.Context()); err != nil && job.Status() == eqasm.JobQueued {
			httpError(w, http.StatusRequestTimeout, err)
			return
		}
		writeJSON(w, http.StatusOK, describeBackendJob(job))
		return
	}
	writeJSON(w, http.StatusAccepted, describeBackendJob(job))
}

func (s *BackendServer) handleGetBatch(w http.ResponseWriter, r *http.Request) {
	job, ok := s.backend.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown batch %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, describeBackendJob(job))
}

func (s *BackendServer) handleCancelBatch(w http.ResponseWriter, r *http.Request) {
	job, ok := s.backend.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown batch %q", r.PathValue("id")))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, describeBackendJob(job))
}

func (s *BackendServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.backend.StatsPayload())
}

func (s *BackendServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.backend.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// describeBackendJob renders an eqasm.Job in the batch wire shape
// Server produces from a service.Job, so clients cannot tell the tiers
// apart.
func describeBackendJob(job *eqasm.Job) batchResponse {
	sts := job.Requests()
	resp := batchResponse{
		ID:       job.ID(),
		Status:   service.State(job.Status()),
		Priority: service.PriorityNormal.String(),
		Requests: make([]service.RequestResult, len(sts)),
	}
	for i, st := range sts {
		rr := service.RequestResult{
			Index:  st.Index,
			Tag:    st.Tag,
			Status: service.State(st.State),
		}
		if res := st.Result; res != nil {
			rr.Shots = res.Shots
			rr.Histogram = res.Histogram
			rr.Qubits = res.Qubits
			rr.Stats = res.Stats
			rr.TotalStats = res.TotalStats
			rr.Backend = res.Backend
			rr.RunTime = res.Duration
		}
		if st.Err != nil {
			rr.Error = st.Err.Error()
		}
		resp.Requests[i] = rr
	}
	if resp.Status.Terminal() {
		if err := job.Err(); err != nil {
			resp.Error = err.Error()
		}
	}
	return resp
}
