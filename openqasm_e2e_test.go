// End-to-end tests for the OpenQASM 2.0 front end: every shared
// fixture circuit (testdata/circuits/*.cq with a *.qasm twin) must
// compile to byte-identical eQASM through either front end and produce
// identical fixed-seed histograms, both in process and submitted to
// the HTTP job service with format "openqasm"; a parametric .qasm
// sweep over HTTP must share one cached program and one execution plan.
package eqasm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"eqasm"
	"eqasm/internal/httpapi"
	"eqasm/internal/service"
)

// conformancePairs are the golden cross-front-end fixtures: the same
// circuit in both syntaxes, with the chip it targets and any symbolic
// parameters to bind at run time.
var conformancePairs = []struct {
	name   string
	topo   string
	params map[string]float64
}{
	{name: "bell", topo: "twoqubit"},
	{name: "ghz", topo: "surface7"},
	{name: "qec", topo: "surface7"},
	{name: "rz_sweep", topo: "twoqubit", params: map[string]float64{"theta": 1.234567}},
}

func TestFrontEndConformance(t *testing.T) {
	for _, tc := range conformancePairs {
		t.Run(tc.name, func(t *testing.T) {
			cq := loadFixture(t, "testdata", "circuits", tc.name+".cq")
			oq := loadFixture(t, "testdata", "circuits", tc.name+".qasm")
			opts := []eqasm.Option{eqasm.WithTopology(tc.topo), eqasm.WithSeed(7)}

			fromCQ, err := eqasm.CompileCircuit(cq, opts...)
			if err != nil {
				t.Fatalf("cqasm front end: %v", err)
			}
			fromOQ, err := eqasm.CompileOpenQASM(oq, opts...)
			if err != nil {
				t.Fatalf("openqasm front end: %v", err)
			}
			if fromCQ.Text() != fromOQ.Text() {
				t.Fatalf("emitted eQASM differs between front ends:\n-- cqasm --\n%s\n-- openqasm --\n%s",
					fromCQ.Text(), fromOQ.Text())
			}

			sim, err := eqasm.NewSimulator(opts...)
			if err != nil {
				t.Fatal(err)
			}
			ropts := eqasm.RunOptions{Shots: 100, Seed: 9, Params: tc.params}
			a, err := sim.Run(context.Background(), fromCQ, ropts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sim.Run(context.Background(), fromOQ, ropts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Histogram, b.Histogram) {
				t.Fatalf("fixed-seed histograms differ: cqasm %v, openqasm %v", a.Histogram, b.Histogram)
			}
		})
	}
}

// TestParseOpenQASMPublicAPI pins the public surface: ParseOpenQASM
// returns the same Circuit as ParseCircuit does for the twin fixture,
// faults carry *AssembleError diagnostics, and DetectFormat sniffs all
// three languages.
func TestParseOpenQASMPublicAPI(t *testing.T) {
	cq := loadFixture(t, "testdata", "circuits", "bell.cq")
	oq := loadFixture(t, "testdata", "circuits", "bell.qasm")
	a, err := eqasm.ParseCircuit(cq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eqasm.ParseOpenQASM(oq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Gates, b.Gates) || a.NumQubits != b.NumQubits {
		t.Fatalf("front ends disagree on the Bell circuit:\ncqasm    %+v\nopenqasm %+v", a, b)
	}

	_, err = eqasm.ParseOpenQASM("OPENQASM 2.0;\nqreg q[1];\nwobble q[0];\n")
	var ae *eqasm.AssembleError
	if !asAssembleError(err, &ae) || len(ae.Diagnostics) != 1 || ae.Diagnostics[0].Line != 3 {
		t.Fatalf("parse fault = %v, want *AssembleError with one line-3 diagnostic", err)
	}

	asmSrc := loadFixture(t, "testdata", "programs", "bell.eqasm")
	for src, want := range map[string]string{
		oq:     eqasm.FormatOpenQASM,
		cq:     eqasm.FormatCQASM,
		asmSrc: eqasm.FormatEQASM,
	} {
		if got := eqasm.DetectFormat(src); got != want {
			t.Errorf("DetectFormat = %q, want %q for:\n%.60s", got, want, src)
		}
	}
}

// asAssembleError keeps the errors.As plumbing out of the test body.
func asAssembleError(err error, target **eqasm.AssembleError) bool {
	if err == nil {
		return false
	}
	ae, ok := err.(*eqasm.AssembleError)
	if ok {
		*target = ae
	}
	return ok
}

func TestOpenQASMJobViaHTTPService(t *testing.T) {
	cq := loadFixture(t, "testdata", "circuits", "bell.cq")
	oq := loadFixture(t, "testdata", "circuits", "bell.qasm")

	svc, err := service.New(service.Config{
		Workers:    2,
		BatchShots: 16,
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
		return postBatchWait(t, ts.URL, req).Histogram
	}

	got := submit(map[string]any{
		"source": oq, "format": "openqasm", "shots": shots, "seed": 23,
	})
	want := submit(map[string]any{
		"source": cq, "format": "cqasm", "shots": shots, "seed": 23,
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("openqasm job histogram %v != cqasm twin histogram %v", got, want)
	}
	if got["00"]+got["11"] != shots {
		t.Fatalf("Bell correlations broken: %v", got)
	}

	// The two front ends cache in disjoint key spaces (two entries), and
	// a second submission of the same OpenQASM text hits the cache.
	if st := svc.Stats(); st.CacheEntries != 2 {
		t.Fatalf("cache entries = %d, want 2 (one per front end)", st.CacheEntries)
	}
	before := svc.Stats().CacheHits
	submit(map[string]any{
		"source": oq, "format": "openqasm", "shots": shots, "seed": 23,
	})
	if after := svc.Stats().CacheHits; after != before+1 {
		t.Fatalf("cache hits %d -> %d; openqasm resubmission did not hit the program cache", before, after)
	}

	// OpenQASM parse faults surface as positioned diagnostics over the
	// wire.
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json",
		bytes.NewReader([]byte(`{"requests": [{"source": "OPENQASM 2.0;\nqreg q[1];\nwobble q[0];", "format": "openqasm"}]}`)))
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
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains([]byte(e.Error), []byte("line 3")) {
		t.Fatalf("parse fault: HTTP %d error %q, want 400 with a line-3 diagnostic", resp.StatusCode, e.Error)
	}
}

// TestOpenQASMParamSweepOverHTTP drives a parametric .qasm sweep
// through the HTTP wire as one batch with format "openqasm": every
// point must match a local run of the same compiled program with the
// same binding, and the whole sweep must share exactly one cached
// program and one execution plan (the /v1/stats plan-cache counters —
// the ISSUE's acceptance probe).
func TestOpenQASMParamSweepOverHTTP(t *testing.T) {
	const points = 8
	const shots = 16
	oq := loadFixture(t, "testdata", "circuits", "rz_sweep.qasm")

	svc, err := service.New(service.Config{
		Workers:    2,
		BatchShots: 32, // one batch per request: local Run comparison is exact
		Machine:    []eqasm.Option{eqasm.WithTopology("twoqubit"), eqasm.WithSeed(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.New(svc).Handler())
	defer ts.Close()

	reqs := make([]map[string]any, points)
	grid := make([]float64, points)
	for i := range reqs {
		grid[i] = 2 * math.Pi * float64(i) / points
		reqs[i] = map[string]any{
			"source": oq, "format": "openqasm", "shots": shots, "seed": 9,
			"params": map[string]float64{"theta": grid[i]},
		}
	}
	payload, err := json.Marshal(map[string]any{"requests": reqs, "wait": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var br struct {
		Status   string `json:"status"`
		Error    string `json:"error"`
		Requests []struct {
			Histogram map[string]int `json:"histogram"`
			CacheHit  bool           `json:"cache_hit"`
		} `json:"requests"`
	}
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || br.Status != "completed" || len(br.Requests) != points {
		t.Fatalf("batch failed: HTTP %d status=%q error=%q (%d requests)",
			resp.StatusCode, br.Status, br.Error, len(br.Requests))
	}

	// Local reference: the same parametric program, bound per point.
	prog, err := eqasm.CompileOpenQASM(oq, eqasm.WithTopology("twoqubit"), eqasm.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eqasm.NewSimulator(eqasm.WithTopology("twoqubit"), eqasm.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, theta := range grid {
		want, err := sim.Run(context.Background(), prog, eqasm.RunOptions{
			Shots: shots, Seed: 9, Params: map[string]float64{"theta": theta},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(br.Requests[i].Histogram, want.Histogram) {
			t.Fatalf("point %d (theta=%v): remote %v != local %v",
				i, theta, br.Requests[i].Histogram, want.Histogram)
		}
		if hit := br.Requests[i].CacheHit; hit != (i > 0) {
			t.Fatalf("point %d cache_hit = %t; a sweep shares one cached program", i, hit)
		}
	}

	// The acceptance probe: one plan-cache entry for the whole sweep,
	// asserted through the wire.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		CacheMisses     int64 `json:"cache_misses"`
		CacheHits       int64 `json:"cache_hits"`
		CacheEntries    int   `json:"cache_entries"`
		PlanCacheMisses int64 `json:"plan_cache_misses"`
		PlanCacheHits   int64 `json:"plan_cache_hits"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("program cache: %d misses, %d entries, want 1 and 1", st.CacheMisses, st.CacheEntries)
	}
	if st.CacheHits != points-1 {
		t.Fatalf("program cache hits = %d, want %d", st.CacheHits, points-1)
	}
	if st.PlanCacheMisses != 1 {
		t.Fatalf("plan_cache_misses = %d, want 1 (one plan for the whole sweep)", st.PlanCacheMisses)
	}
	if st.PlanCacheHits != points-1 {
		t.Fatalf("plan_cache_hits = %d, want %d", st.PlanCacheHits, points-1)
	}
}
