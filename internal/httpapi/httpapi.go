// Package httpapi is the HTTP/JSON front end of the eQASM execution
// service: the wire protocol behind cmd/eqasm-serve and the public
// eqasm.Client.
//
// Endpoints:
//
//	POST   /v1/batches      submit N programs as one queued unit
//	                        ({"requests": [{"source": ..., "shots": N, "seed": S, "tag": ...}, ...]};
//	                        "wait": true answers once the batch finished; a request's
//	                        "format": "cqasm" or "openqasm" submits circuit text
//	                        compiled server-side, "circuit" a gate list)
//	GET    /v1/batches/{id} batch status with per-request statuses, histograms and stats
//	DELETE /v1/batches/{id} cancel a batch
//	GET    /v1/stats        service counters (queue depth, cache hits, batch stats)
//	GET    /healthz         liveness probe
//
// The request body is declared once, in internal/wire, and decoded by
// one function (decodeBatch) for both Server and BackendServer.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"eqasm"
	"eqasm/internal/service"
	"eqasm/internal/wire"
)

// Server is the HTTP/JSON front end over a service.Service.
type Server struct {
	svc   *service.Service
	start time.Time
}

// New builds a Server over svc.
func New(svc *service.Service) *Server {
	return &Server{svc: svc, start: time.Now()}
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleGetBatch)
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleCancelBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// batchResponse describes a batch in every GET/POST response: job
// identity plus live per-request statuses (histograms and counters
// included once a request finished).
type batchResponse struct {
	ID       string                  `json:"id"`
	Status   service.State           `json:"status"`
	Priority string                  `json:"priority"`
	Requests []service.RequestResult `json:"requests"`
	Result   *service.Result         `json:"result,omitempty"`
	Error    string                  `json:"error,omitempty"`
}

func describeBatch(job *service.Job) batchResponse {
	resp := batchResponse{
		ID:       job.ID,
		Status:   job.Status(),
		Priority: job.Priority().String(),
		Requests: job.Requests(),
	}
	if resp.Status.Terminal() {
		res, err := job.Result()
		resp.Result = res
		if err != nil {
			resp.Error = err.Error()
		}
	}
	return resp
}

// maxRequestBytes bounds a submission body (programs are text; 8 MiB
// is orders of magnitude above any real payload).
const maxRequestBytes = 8 << 20

// decodeBatch reads and checks a POST /v1/batches body: the one decode
// both Server and BackendServer run. Every request is checked against
// the service's admission rules (source/circuit exclusivity, format,
// backend and fusion names, shot and seed ranges, finite parameters,
// batch size), so a body either is rejected here — with a 400 already
// written to w, and ok false — or is well formed for whichever tier
// executes it. spec is the batch in the service's terms.
func decodeBatch(w http.ResponseWriter, r *http.Request) (body wire.Batch, spec service.BatchSpec, ok bool) {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return body, spec, false
	}
	prio, err := service.ParsePriority(body.Priority)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return body, spec, false
	}
	spec = service.BatchSpec{Priority: prio, Requests: make([]service.RequestSpec, len(body.Requests))}
	for i, item := range body.Requests {
		spec.Requests[i] = service.RequestSpec{
			Source:  item.Source,
			Format:  item.Format,
			Circuit: toCircuit(item.Circuit),
			Shots:   item.Shots,
			Seed:    item.Seed,
			Tag:     item.Tag,
			Chip:    item.Chip,
			Backend: item.Backend,
			Fusion:  item.Fusion,
			Params:  item.Params,
		}
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return body, spec, false
	}
	return body, spec, true
}

// toCircuit lifts a wire circuit into the public type (nil stays nil).
func toCircuit(c *wire.Circuit) *eqasm.Circuit {
	if c == nil {
		return nil
	}
	out := &eqasm.Circuit{Name: c.Name, NumQubits: c.NumQubits}
	for _, g := range c.Gates {
		out.Gates = append(out.Gates, eqasm.Gate{
			Name:           g.Name,
			Qubits:         g.Qubits,
			DurationCycles: g.DurationCycles,
			Measure:        g.Measure,
			Angle:          g.Angle,
			Param:          g.Param,
		})
	}
	return out
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	body, spec, ok := decodeBatch(w, r)
	if !ok {
		return
	}
	// A waiting client that disconnects cancels its batch; an async
	// batch must outlive the request and is cancelled via DELETE
	// instead.
	ctx := context.Background()
	if body.Wait {
		ctx = r.Context()
	}
	job, err := s.svc.SubmitBatch(ctx, spec)
	switch {
	case err == nil:
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrClosed), errors.Is(err, service.ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	default:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if body.Wait {
		if _, err := job.Wait(r.Context()); err != nil && job.Status() == service.StateQueued {
			// The client went away while the batch was still queued.
			httpError(w, http.StatusRequestTimeout, err)
			return
		}
		writeJSON(w, http.StatusOK, describeBatch(job))
		return
	}
	writeJSON(w, http.StatusAccepted, describeBatch(job))
}

func (s *Server) handleGetBatch(w http.ResponseWriter, r *http.Request) {
	job, ok := s.svc.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown batch %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, describeBatch(job))
}

func (s *Server) handleCancelBatch(w http.ResponseWriter, r *http.Request) {
	job, ok := s.svc.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown batch %q", r.PathValue("id")))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, describeBatch(job))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	type statsResponse struct {
		service.Stats
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Stats:         s.svc.Stats(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A draining worker is alive but out of rotation: 503 tells load
	// balancers and the coordinator to stop steering work here while
	// in-flight jobs finish.
	if s.svc.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpapi: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
