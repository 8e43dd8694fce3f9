package main

import (
	"encoding/json"
	"os"
	"testing"

	"eqasm"
)

// The benchmark runs from the repository root (fixtures are read from
// testdata/programs there).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending input: tail must sort
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if _, _, ok := tail(xs[:tailBeyond]); ok {
		t.Fatal("tail of 10 samples has fewer than 10 beyond it; want ok=false")
	}
	if v, pct, ok := tail(xs[:tailBeyond+1]); !ok || v != 90 || pct > 10 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok %v), want the smallest", v, pct, ok)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 20, end: 50}, {start: 10, end: 30}, // overlap: [10, 50]
		{start: 60, end: 70},
		{start: 65, end: 68},   // inside the previous child
		{start: 90, end: 120},  // clipped to the parent: [90, 100]
		{start: -20, end: -10}, // outside the parent
	}
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("self time = %d, want 100 - (40 + 10 + 10) = 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	kinds := map[opKind]int{}
	for k := 0; k < 10*mixBlock; k++ {
		a, b := serveMix(7, k), serveMix(7, k)
		if a.kind != b.kind || a.name != b.name || len(a.srcs) != len(b.srcs) || a.seeds[0] != b.seeds[0] || a.srcs[0] != b.srcs[0] {
			t.Fatalf("request %d differs between two generations at one seed", k)
		}
		kinds[a.kind]++
	}
	want := map[opKind]int{kindSmoke: 60, kindCQ: 10, kindOQ: 10, kindSweep: 10}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("mix over %d requests: %v, want %v", 10*mixBlock, kinds, want)
		}
	}
	same := 0
	for k := 0; k < 50; k++ {
		a, b := serveMix(7, k), serveMix(8, k)
		if a.kind == b.kind && a.srcs[0] == b.srcs[0] && a.seeds[0] == b.seeds[0] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d of 50 requests identical under two seeds", same)
	}
	fresh := map[string]bool{}
	for k := 0; k < 400; k++ {
		if op := serveMix(7, k); op.kind == kindCQ || op.kind == kindOQ {
			if fresh[op.srcs[0]] {
				t.Fatalf("fresh circuit of request %d repeats", k)
			}
			fresh[op.srcs[0]] = true
		}
	}
	fresh = map[string]bool{}
	for k := 0; k < 400; k++ {
		a, b := freshMix(7, k), freshMix(7, k)
		if a.srcs[0] != b.srcs[0] || a.seeds[0] != b.seeds[0] {
			t.Fatalf("fresh request %d differs between two generations at one seed", k)
		}
		if fresh[a.srcs[0]] {
			t.Fatalf("fresh circuit of request %d repeats", k)
		}
		fresh[a.srcs[0]] = true
	}
}

// TestReplayParity holds every traced replay to the untraced path it
// stands in for, and checks that the parity assertion notices a
// difference.
func TestReplayParity(t *testing.T) {
	t.Run("serve", func(t *testing.T) {
		lone, err := eqasm.NewSimulator()
		if err != nil {
			t.Fatal(err)
		}
		rp := newExecReplay(newTracer())
		// Four mix blocks: every kind, with state-vector programs run
		// both with fusion (even k) and over the kernel timing wrapper.
		for k := 0; k < 4*mixBlock; k++ {
			op := serveMix(9, k)
			want, err := op.reference(lone)
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.run(k, op, want); err != nil {
				t.Fatal(err)
			}
			changed := *want[0]
			changed.TotalStats.QuantumOps++
			want[0] = &changed
			if rp.run(k, op, want) == nil {
				t.Fatalf("%s: parity check missed a changed counter", op.name)
			}
		}
		if rp.svCalls == 0 || rp.tabCalls == 0 || rp.plainShots == 0 || rp.cqGates == 0 || rp.oqGates == 0 || rp.words == 0 {
			t.Fatalf("replay missed a path: %d state-vector and %d tableau kernel calls, %d shots with fusion, "+
				"%d cQASM and %d OpenQASM gates, %d encoded words",
				rp.svCalls, rp.tabCalls, rp.plainShots, rp.cqGates, rp.oqGates, rp.words)
		}
		spans := rp.t.byName()
		for _, pass := range compilerPasses {
			if spans["compiler."+pass] == nil {
				t.Errorf("no span for pass %s", pass)
			}
		}
	})
}

func TestServeReferenceMatchesTier(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving tier")
	}
	s, err := startServe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	lone, err := eqasm.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[opKind]bool{}
	for k := 0; len(seen) < 4; k++ {
		op := serveMix(9, k)
		if seen[op.kind] {
			continue
		}
		seen[op.kind] = true
		got, err := s.do(k, op, nil)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		want, err := op.reference(lone)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if err := sameResult(got[i], want[i]); err != nil {
				t.Fatalf("%s request %d: %v", op.name, i, err)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the
// workload and metric tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], m)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd)
	check("per-layer", doc.PerLayer, perLayer)
}
