// End-to-end tests for the cQASM front end: testdata/circuits/bell.cq
// compiled through the pass pipeline must reproduce the shipped
// bell.eqasm fixture's fixed-seed histogram, both on the in-process
// Simulator and submitted to the HTTP job service with format "cqasm".
package eqasm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eqasm"
	"eqasm/internal/httpapi"
	"eqasm/internal/service"
)

func loadFixture(t *testing.T, parts ...string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(parts...))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCompileCircuitMatchesFixtureOnSimulator(t *testing.T) {
	cq := loadFixture(t, "testdata", "circuits", "bell.cq")
	asmSrc := loadFixture(t, "testdata", "programs", "bell.eqasm")

	opts := []eqasm.Option{eqasm.WithTopology("twoqubit"), eqasm.WithSeed(11)}
	compiled, err := eqasm.CompileCircuit(cq, append(opts, eqasm.WithSOMQ())...)
	if err != nil {
		t.Fatal(err)
	}
	assembled, err := eqasm.Assemble(asmSrc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eqasm.NewSimulator(opts...)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 400
	run := func(p *eqasm.Program) map[string]int {
		res, err := sim.Run(context.Background(), p, eqasm.RunOptions{Shots: shots})
		if err != nil {
			t.Fatal(err)
		}
		return res.Histogram
	}
	got, want := run(compiled), run(assembled)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled bell.cq histogram %v != bell.eqasm fixture histogram %v", got, want)
	}
	if got["00"]+got["11"] != shots {
		t.Fatalf("Bell correlations broken: %v", got)
	}
}

// postBatchWait submits req as a one-request synchronous /v1/batches
// batch and returns the request's terminal outcome, failing the test
// unless the batch completed.
func postBatchWait(t *testing.T, url string, req map[string]any) service.RequestResult {
	t.Helper()
	payload, err := json.Marshal(map[string]any{"requests": []map[string]any{req}, "wait": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br struct {
		Status   string                  `json:"status"`
		Error    string                  `json:"error"`
		Requests []service.RequestResult `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || br.Status != "completed" || len(br.Requests) != 1 {
		t.Fatalf("batch failed: HTTP %d status=%q error=%q", resp.StatusCode, br.Status, br.Error)
	}
	return br.Requests[0]
}

func TestCQASMJobViaHTTPService(t *testing.T) {
	cq := loadFixture(t, "testdata", "circuits", "bell.cq")
	asmSrc := loadFixture(t, "testdata", "programs", "bell.eqasm")

	svc, err := service.New(service.Config{
		Workers:    2,
		BatchShots: 16,
		SOMQ:       true,
		Machine:    []eqasm.Option{eqasm.WithTopology("twoqubit")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.New(svc).Handler())
	defer ts.Close()

	const shots = 200
	submit := func(req map[string]any) map[string]int {
		t.Helper()
		rr := postBatchWait(t, ts.URL, req)
		if rr.Shots != shots {
			t.Fatalf("ran %d shots, want %d", rr.Shots, shots)
		}
		return rr.Histogram
	}

	got := submit(map[string]any{
		"source": cq, "format": "cqasm", "shots": shots, "seed": 23,
	})
	want := submit(map[string]any{
		"source": asmSrc, "shots": shots, "seed": 23,
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cqasm job histogram %v != eqasm fixture histogram %v", got, want)
	}
	if got["00"]+got["11"] != shots {
		t.Fatalf("Bell correlations broken: %v", got)
	}

	// A second submission of the same circuit text must hit the program
	// cache (server-side compilation cached alongside assembled programs).
	before := svc.Stats().CacheHits
	submit(map[string]any{
		"source": cq, "format": "cqasm", "shots": shots, "seed": 23,
	})
	if after := svc.Stats().CacheHits; after != before+1 {
		t.Fatalf("cache hits %d -> %d; cqasm submission did not hit the program cache", before, after)
	}

	// Unknown formats are rejected with a client error.
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json",
		bytes.NewReader([]byte(`{"requests": [{"source": "qubits 1", "format": "quil"}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: HTTP %d, want 400", resp.StatusCode)
	}

	// cQASM parse faults surface as positioned diagnostics over the wire.
	resp, err = http.Post(ts.URL+"/v1/batches", "application/json",
		bytes.NewReader([]byte(`{"requests": [{"source": "qubits 2\nwobble q[0]", "format": "cqasm"}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains([]byte(e.Error), []byte("line 2")) {
		t.Fatalf("parse fault: HTTP %d error %q, want 400 with a line-2 diagnostic", resp.StatusCode, e.Error)
	}
}
