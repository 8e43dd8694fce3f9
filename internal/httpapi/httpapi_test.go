package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eqasm"
	"eqasm/internal/service"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := service.New(service.Config{
		Workers:    2,
		BatchShots: 16,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func field[T any](t *testing.T, m map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	raw, ok := m[key]
	if !ok {
		t.Fatalf("response missing %q: %v", key, m)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

// submitOne posts a one-request batch and returns the response with its
// decoded body.
func submitOne(t *testing.T, url string, req map[string]any, wait bool) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	return postJSON(t, url+"/v1/batches", map[string]any{"requests": []map[string]any{req}, "wait": wait})
}

// A synchronous submit returns the aggregated Bell histogram.
func TestSubmitWait(t *testing.T) {
	ts := newTestServer(t)
	resp, body := submitOne(t, ts.URL, map[string]any{
		"source": service.SmokePrograms()["bell"],
		"shots":  100,
	}, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, body)
	}
	if st := field[string](t, body, "status"); st != "completed" {
		t.Fatalf("status field = %q", st)
	}
	hist := field[[]service.RequestResult](t, body, "requests")[0].Histogram
	total := 0
	for key, n := range hist {
		if key != "00" && key != "11" {
			t.Fatalf("uncorrelated outcome %q", key)
		}
		total += n
	}
	if total != 100 {
		t.Fatalf("histogram sums to %d", total)
	}
}

// An async submit returns 202 and the batch becomes queryable until
// done.
func TestSubmitPoll(t *testing.T) {
	ts := newTestServer(t)
	resp, body := submitOne(t, ts.URL, map[string]any{
		"source": service.SmokePrograms()["flip"],
		"shots":  20,
	}, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	id := field[string](t, body, "id")
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/batches/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr struct {
			Status string          `json:"status"`
			Result *service.Result `json:"result"`
		}
		err = json.NewDecoder(r.Body).Decode(&jr)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jr.Status == "completed" {
			if jr.Result == nil || jr.Result.Shots != 20 {
				t.Fatalf("result = %+v", jr.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck in %q", jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Circuits submit through the same endpoint.
func TestSubmitCircuit(t *testing.T) {
	ts := newTestServer(t)
	resp, body := submitOne(t, ts.URL, map[string]any{
		"circuit": map[string]any{
			"num_qubits": 3,
			"gates": []map[string]any{
				{"name": "X", "qubits": []int{0}},
				{"name": "MEASZ", "qubits": []int{0}, "measure": true},
			},
		},
		"shots": 10,
	}, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, body)
	}
	hist := field[[]service.RequestResult](t, body, "requests")[0].Histogram
	if hist["1"] != 10 {
		t.Fatalf("X|0> histogram = %v, want all \"1\"", hist)
	}
}

// Bad payloads are 400s, unknown batches 404s, /v1/jobs is gone, and
// stats/healthz serve.
func TestErrorPathsAndStats(t *testing.T) {
	ts := newTestServer(t)

	resp, _ := submitOne(t, ts.URL, map[string]any{"shots": 5}, false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec: status = %d", resp.StatusCode)
	}
	resp, _ = submitOne(t, ts.URL, map[string]any{"source": "NOTANINSTRUCTION"}, true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("assembly error: status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/batches", map[string]any{
		"requests": []map[string]any{{"source": "STOP"}}, "priority": "urgent",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: status = %d", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/v1/batches/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown batch: status = %d", r.StatusCode)
	}
	r, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"source": "STOP"}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound && r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/jobs: status = %d, want 404 or 405", r.StatusCode)
	}

	// One real batch so the counters move.
	if resp, _ := submitOne(t, ts.URL, map[string]any{
		"source": service.SmokePrograms()["flip"], "shots": 5,
	}, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status = %d", resp.StatusCode)
	}

	r, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Workers         int   `json:"workers"`
		JobsCompleted   int64 `json:"jobs_completed"`
		ShotsExecuted   int64 `json:"shots_executed"`
		PlanCacheHits   int64 `json:"plan_cache_hits"`
		PlanCacheMisses int64 `json:"plan_cache_misses"`
	}
	err = json.NewDecoder(r.Body).Decode(&stats)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 2 || stats.JobsCompleted != 1 || stats.ShotsExecuted != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	// The single batch assembled and lowered its execution plan once.
	if stats.PlanCacheHits != 0 || stats.PlanCacheMisses != 1 {
		t.Fatalf("plan cache counters = %d hits / %d misses, want 0/1", stats.PlanCacheHits, stats.PlanCacheMisses)
	}

	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status = %d", r.StatusCode)
	}
}

// DELETE cancels a running batch.
func TestCancelJob(t *testing.T) {
	svc, err := service.New(service.Config{
		Workers:    1,
		QueueDepth: 100000,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc).Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()
	resp, body := submitOne(t, ts.URL, map[string]any{
		"source": service.SmokePrograms()["bell"],
		"shots":  500000,
	}, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	id := field[string](t, body, "id")

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/batches/%s", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status = %d", r.StatusCode)
	}
	job, ok := svc.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job never finished")
	}
	if job.Status() != service.StateCancelled {
		t.Fatalf("state = %s", job.Status())
	}
}

// A /v1/batches submit queues N programs as one job with per-request
// statuses; polling surfaces per-request histograms and stats, and the
// wire results match one-request batches at the same seeds.
func TestSubmitBatch(t *testing.T) {
	ts := newTestServer(t)
	requests := []map[string]any{
		{"source": service.SmokePrograms()["bell"], "shots": 24, "seed": 7, "tag": "bell"},
		{"source": service.SmokePrograms()["flip"], "shots": 10, "seed": 3, "tag": "flip"},
	}
	resp, body := postJSON(t, ts.URL+"/v1/batches", map[string]any{"requests": requests})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d: %v", resp.StatusCode, body)
	}
	id := field[string](t, body, "id")
	if n := len(field[[]json.RawMessage](t, body, "requests")); n != 2 {
		t.Fatalf("submit echoed %d request statuses, want 2", n)
	}

	// Poll the batch endpoint until terminal.
	var reqs []service.RequestResult
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/batches/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var br struct {
			Status   service.State           `json:"status"`
			Requests []service.RequestResult `json:"requests"`
		}
		if err := json.NewDecoder(r.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if br.Status.Terminal() {
			reqs = br.Requests
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch stuck in %q", br.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Each request's wire histogram matches the same program submitted
	// alone as a one-request batch (fixed seeds).
	for i, req := range requests {
		_, soloBody := submitOne(t, ts.URL, map[string]any{
			"source": req["source"], "shots": req["shots"], "seed": req["seed"],
		}, true)
		solo := field[[]service.RequestResult](t, soloBody, "requests")[0]
		rr := reqs[i]
		if rr.Tag != req["tag"] || rr.Status != service.StateCompleted {
			t.Fatalf("request %d = %+v", i, rr)
		}
		if fmt.Sprint(rr.Histogram) != fmt.Sprint(solo.Histogram) {
			t.Fatalf("request %d: batch %v, solo %v", i, rr.Histogram, solo.Histogram)
		}
		if rr.TotalStats != solo.TotalStats || rr.TotalStats.Instructions == 0 {
			t.Fatalf("request %d: total stats %+v, solo %+v", i, rr.TotalStats, solo.TotalStats)
		}
	}

	// Batch traffic shows in the service counters.
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats struct {
		BatchJobs         int64 `json:"batch_jobs"`
		RequestsSubmitted int64 `json:"requests_submitted"`
	}
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.BatchJobs != 1 || stats.RequestsSubmitted != 4 {
		t.Fatalf("stats = %+v, want 1 batch / 4 requests", stats)
	}
}

// DELETE /v1/batches/{id} cancels a queued batch; bad batches are
// positioned 400s.
func TestBatchCancelAndErrors(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/batches", map[string]any{
		"requests": []map[string]any{
			{"source": service.SmokePrograms()["bell"], "shots": 5_000_000},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d: %v", resp.StatusCode, body)
	}
	id := field[string](t, body, "id")
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/batches/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", r.StatusCode)
	}

	// Malformed batches are 400s with an error body.
	for _, bad := range []map[string]any{
		{},                                 // no requests
		{"requests": []map[string]any{{}}}, // empty request
		{"requests": []map[string]any{{"source": "STOP"}}, "priority": "urgent"}, // bad priority
	} {
		resp, body := postJSON(t, ts.URL+"/v1/batches", bad)
		if resp.StatusCode != http.StatusBadRequest || field[string](t, body, "error") == "" {
			t.Fatalf("bad batch %v: status %d body %v", bad, resp.StatusCode, body)
		}
	}

	// Unknown batch IDs are 404s.
	r2, err := http.Get(ts.URL + "/v1/batches/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown batch status = %d", r2.StatusCode)
	}
}
