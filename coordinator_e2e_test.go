// The sharded serving tier end to end: real workers behind real HTTP
// front ends, a coordinator routing batches across them, and the
// failure modes the tier exists for — worker death mid-batch,
// coordinator restart over its journal — all while staying
// bit-identical to a lone Simulator at the same seeds.
package eqasm_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"eqasm"
	"eqasm/internal/coordinator"
	"eqasm/internal/httpapi"
	"eqasm/internal/service"
	"eqasm/internal/wal"
)

// workerPool is a set of in-process eqasm-serve instances: each a real
// Service behind a real HTTP listener, with the handles a test needs
// to inspect or kill them.
type workerPool struct {
	urls    []string
	svcs    map[string]*service.Service
	servers map[string]*httptest.Server
}

func startWorkers(t testing.TB, n int, cfg service.Config) *workerPool {
	t.Helper()
	if cfg.Machine == nil {
		cfg.Machine = []eqasm.Option{eqasm.WithSeed(1)}
	}
	p := &workerPool{
		svcs:    make(map[string]*service.Service),
		servers: make(map[string]*httptest.Server),
	}
	for i := 0; i < n; i++ {
		svc, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(httpapi.New(svc).Handler())
		t.Cleanup(func() {
			ts.Close()
			svc.Close()
		})
		p.urls = append(p.urls, ts.URL)
		p.svcs[ts.URL] = svc
		p.servers[ts.URL] = ts
	}
	return p
}

func newCoordinator(t testing.TB, p *workerPool, cfg coordinator.Config) *coordinator.Coordinator {
	t.Helper()
	cfg.Workers = p.urls
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	cfg.Client = append([]eqasm.ClientOption{eqasm.WithPollInterval(2 * time.Millisecond)}, cfg.Client...)
	coord, err := coordinator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// simReference is the ground truth: a lone Simulator at the same seed,
// with Workers matching the service-side batch split (shots/BatchShots)
// so the per-batch seed derivation lines up shot for shot.
func simReference(t *testing.T, src string, shots int, seed int64, workers int) *eqasm.Result {
	t.Helper()
	return simRun(t, assemble(t, src), eqasm.RunOptions{Shots: shots, Seed: seed, Workers: workers})
}

// simRun is simReference for an already-built program and full run
// options (the caller sets opts.Workers to the service-side batch
// count).
func simRun(t *testing.T, prog *eqasm.Program, opts eqasm.RunOptions) *eqasm.Result {
	t.Helper()
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assemble(t testing.TB, src string) *eqasm.Program {
	t.Helper()
	prog, err := eqasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCoordinatorBatchParity routes a multi-program batch across two
// workers and checks every request's histogram is bit-identical to a
// lone Simulator at the same explicit seed — through the coordinator
// as a library Backend, and again through the full wire topology
// (Client → coordinator HTTP front end → workers).
func TestCoordinatorBatchParity(t *testing.T) {
	const (
		shots      = 32
		batchShots = 8
	)
	pool := startWorkers(t, 2, service.Config{Workers: 2, BatchShots: batchShots})
	coord := newCoordinator(t, pool, coordinator.Config{})

	smoke := service.SmokePrograms()
	names := []string{"bell", "flip", "active_reset"}
	reqs := make([]eqasm.RunRequest, len(names))
	for i, name := range names {
		reqs[i] = eqasm.RunRequest{
			Program: assemble(t, smoke[name]),
			Options: eqasm.RunOptions{Shots: shots, Seed: int64(10 * (i + 1))},
			Tag:     name,
		}
	}
	job, err := coord.Submit(context.Background(), reqs...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		want := simReference(t, smoke[name], shots, int64(10*(i+1)), shots/batchShots)
		if !maps.Equal(results[i].Histogram, want.Histogram) {
			t.Errorf("%s: coordinator histogram %v, simulator %v", name, results[i].Histogram, want.Histogram)
		}
	}

	// Same batch over the wire: the public Client cannot tell the
	// coordinator's front end from a worker's.
	front := httptest.NewServer(httpapi.NewBackend(coord).Handler())
	defer front.Close()
	client := eqasm.NewClient(front.URL,
		eqasm.WithHTTPClient(front.Client()),
		eqasm.WithPollInterval(2*time.Millisecond))
	wireJob, err := client.Submit(context.Background(), reqs...)
	if err != nil {
		t.Fatal(err)
	}
	wireResults, err := wireJob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if !maps.Equal(wireResults[i].Histogram, results[i].Histogram) {
			t.Errorf("%s: wire histogram %v differs from library histogram %v",
				name, wireResults[i].Histogram, results[i].Histogram)
		}
	}
	if st := coord.Stats(); st.JobsCompleted < 2 {
		t.Errorf("jobs_completed = %d, want >= 2", st.JobsCompleted)
	}
}

// TestCoordinatorWorkerKillRequeue kills the worker a long request
// routed to, mid-run, and checks the coordinator re-queues it onto the
// survivor with a bit-identical result: seeds derive from the request,
// not the placement, so a rerun elsewhere is the same computation.
func TestCoordinatorWorkerKillRequeue(t *testing.T) {
	const (
		shots      = 600_000
		batchShots = 10_000
		seed       = 7
	)
	pool := startWorkers(t, 2, service.Config{Workers: 2, BatchShots: batchShots})
	coord := newCoordinator(t, pool, coordinator.Config{})

	src := service.SmokePrograms()["bell"]
	prog := assemble(t, src)
	target, err := coord.RouteURL(prog)
	if err != nil {
		t.Fatal(err)
	}

	job, err := coord.Submit(context.Background(), eqasm.RunRequest{
		Program: prog,
		Options: eqasm.RunOptions{Shots: shots, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the target worker is actually executing shots, then
	// kill it: HTTP front end first (polls start failing), then the
	// service (in-flight compute stops).
	deadline := time.Now().Add(10 * time.Second)
	for pool.svcs[target].Stats().InflightShots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("target worker never started executing")
		}
		time.Sleep(time.Millisecond)
	}
	pool.servers[target].CloseClientConnections()
	pool.servers[target].Close()
	pool.svcs[target].Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job after worker kill: %v", err)
	}
	want := simReference(t, src, shots, seed, shots/batchShots)
	if !maps.Equal(results[0].Histogram, want.Histogram) {
		t.Errorf("post-requeue histogram %v, simulator %v", results[0].Histogram, want.Histogram)
	}
	st := coord.Stats()
	if st.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", st.Requeues)
	}
	// The survivor did the (re)work.
	for url, svc := range pool.svcs {
		if url == target {
			continue
		}
		if got := svc.Stats().ShotsExecuted; got != shots {
			t.Errorf("survivor executed %d shots, want %d", got, shots)
		}
	}
}

// TestCoordinatorWALReplay restarts the coordinator over its journal:
// a batch admitted while no worker was reachable survives the restart
// and completes — bit-identically — in the next life.
func TestCoordinatorWALReplay(t *testing.T) {
	const (
		shots      = 64
		batchShots = 16
		seed       = 9
	)
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	src := service.SmokePrograms()["bell"]

	// Life 1: the only worker is a dead address. The batch is admitted
	// (journaled) but cannot dispatch; Close abandons it mid-flight,
	// exactly as a crash would.
	log1, err := wal.Open(walPath, wal.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := coordinator.New(coordinator.Config{
		Workers:        []string{"http://127.0.0.1:1"},
		HealthInterval: 10 * time.Millisecond,
		WorkerWait:     time.Minute,
		WAL:            log1,
	})
	if err != nil {
		t.Fatal(err)
	}
	job1, err := coord1.Submit(context.Background(), eqasm.RunRequest{
		Program: assemble(t, src),
		Options: eqasm.RunOptions{Shots: shots, Seed: seed},
		Tag:     "durable",
	})
	if err != nil {
		t.Fatal(err)
	}
	id := job1.ID()
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-job1.Done():
		t.Fatal("abandoned job finalized; crash-equivalent close must leave it to recovery")
	default:
	}

	// Life 2: same journal, live worker. The batch is re-admitted
	// under its old ID and runs to completion.
	pool := startWorkers(t, 1, service.Config{Workers: 2, BatchShots: batchShots})
	log2, err := wal.Open(walPath, wal.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	coord2 := newCoordinator(t, pool, coordinator.Config{WAL: log2})
	if got := coord2.Stats().RecoveredBatches; got != 1 {
		t.Fatalf("recovered_batches = %d, want 1", got)
	}
	job2, ok := coord2.Job(id)
	if !ok {
		t.Fatalf("recovered coordinator does not know batch %s", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := job2.Wait(ctx)
	if err != nil {
		t.Fatalf("recovered job: %v", err)
	}
	want := simReference(t, src, shots, seed, shots/batchShots)
	if !maps.Equal(results[0].Histogram, want.Histogram) {
		t.Errorf("recovered histogram %v, simulator %v", results[0].Histogram, want.Histogram)
	}
	if sts := job2.Requests(); sts[0].Tag != "durable" {
		t.Errorf("recovered tag %q, want %q", sts[0].Tag, "durable")
	}

	// The recovered sequence does not collide with the old ID space.
	job3, err := coord2.Submit(context.Background(), eqasm.RunRequest{
		Program: assemble(t, src),
		Options: eqasm.RunOptions{Shots: 8, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job3.ID() == id {
		t.Errorf("fresh submit reused recovered ID %s", id)
	}
	if _, err := job3.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorParamsFusionAngles holds the routing tier to one
// request shape from Client to journal: parameter bindings and the
// fusion override survive the coordinator's HTTP front end and its
// write-ahead log, and compiled programs whose angles have no 32-bit
// encoding route in process. Every result is bit-identical to a lone
// Simulator at the same seeds.
func TestCoordinatorParamsFusionAngles(t *testing.T) {
	const (
		shots      = 32
		batchShots = 8
		workers    = shots / batchShots // the service-side batch split
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sweep, err := eqasm.CompileCircuit(paramAnsatz)
	if err != nil {
		t.Fatal(err)
	}
	sweepReqs := func(thetas ...float64) []eqasm.RunRequest {
		reqs := make([]eqasm.RunRequest, len(thetas))
		for i, theta := range thetas {
			reqs[i] = eqasm.RunRequest{
				Program: sweep,
				Options: eqasm.RunOptions{Shots: shots, Seed: int64(20 + i)},
				Params:  map[string]float64{"theta": theta},
				Tag:     fmt.Sprintf("p%d", i),
			}
		}
		return reqs
	}
	checkParity := func(t *testing.T, reqs []eqasm.RunRequest, results []*eqasm.Result) {
		t.Helper()
		for i, r := range reqs {
			opts := r.Options
			opts.Workers = workers
			if r.Params != nil {
				opts.Params = r.Params
			}
			if want := simRun(t, r.Program, opts).Histogram; !maps.Equal(results[i].Histogram, want) {
				t.Errorf("request %d (%s): histogram %v, simulator %v", i, r.Tag, results[i].Histogram, want)
			}
		}
	}

	t.Run("client-sweep-and-fusion", func(t *testing.T) {
		pool := startWorkers(t, 2, service.Config{Workers: 2, BatchShots: batchShots})
		coord := newCoordinator(t, pool, coordinator.Config{})
		front := httptest.NewServer(httpapi.NewBackend(coord).Handler())
		defer front.Close()
		client := eqasm.NewClient(front.URL,
			eqasm.WithHTTPClient(front.Client()),
			eqasm.WithPollInterval(2*time.Millisecond))

		// The fusion override alone first: the Bell pair fuses on the
		// state vector unless "off" reaches the worker, and a fused run
		// would show in its kernel profile.
		bell := eqasm.RunRequest{
			Program: assemble(t, service.SmokePrograms()["bell"]),
			Options: eqasm.RunOptions{Shots: shots, Seed: 5, Backend: eqasm.BackendStateVector, Fusion: eqasm.FusionOff},
			Tag:     "unfused",
		}
		job, err := client.Submit(ctx, bell)
		if err != nil {
			t.Fatal(err)
		}
		results, err := job.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, []eqasm.RunRequest{bell}, results)
		for url, svc := range pool.svcs {
			profile := svc.Stats().GateProfile
			for kind := range profile {
				if strings.HasPrefix(kind, "fused.") || strings.HasPrefix(kind, "fusion.") {
					t.Errorf("worker %s ran fused kernels for a fusion-off request: %v", url, profile)
					break
				}
			}
		}

		// Then the %theta sweep as one batch.
		reqs := sweepReqs(0, math.Pi/3, 2.5)
		if job, err = client.Submit(ctx, reqs...); err != nil {
			t.Fatal(err)
		}
		if results, err = job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		checkParity(t, reqs, results)
	})

	t.Run("in-process-angles", func(t *testing.T) {
		pool := startWorkers(t, 2, service.Config{Workers: 2, BatchShots: batchShots})
		coord := newCoordinator(t, pool, coordinator.Config{})
		for _, tc := range []struct {
			src    string
			params map[string]float64
		}{
			{"qubits 3\nh q[0]\nrz q[0], 0.3\nrx q[0], 1.3\nmeasure q[0]\n", nil},
			{"qubits 3\nh q[0]\nrz q[0], %theta\nrx q[0], 1.3\nmeasure q[0]\n", map[string]float64{"theta": 1.1}},
		} {
			prog, err := eqasm.CompileCircuit(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			opts := eqasm.RunOptions{Shots: shots, Seed: 11, Params: tc.params}
			res, err := coord.Run(ctx, prog, opts)
			if err != nil {
				t.Fatalf("%q: %v", tc.src, err)
			}
			opts.Workers = workers
			if want := simRun(t, prog, opts).Histogram; !maps.Equal(res.Histogram, want) {
				t.Errorf("%q: histogram %v, simulator %v", tc.src, res.Histogram, want)
			}
		}
	})

	t.Run("wal-replay", func(t *testing.T) {
		walPath := filepath.Join(t.TempDir(), "coord.wal")
		reqs := sweepReqs(0.4, 1.9)
		reqs[1].Options.Fusion = eqasm.FusionOff

		// Life 1: no reachable worker, so the batch is journaled and
		// still running when Close abandons it, as a crash would.
		log1, err := wal.Open(walPath, wal.WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		coord1, err := coordinator.New(coordinator.Config{
			Workers:        []string{"http://127.0.0.1:1"},
			HealthInterval: 10 * time.Millisecond,
			WorkerWait:     time.Minute,
			WAL:            log1,
		})
		if err != nil {
			t.Fatal(err)
		}
		job1, err := coord1.Submit(ctx, reqs...)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord1.Close(); err != nil {
			t.Fatal(err)
		}

		// Life 2: the journal alone rebuilds the parametric batch.
		pool := startWorkers(t, 1, service.Config{Workers: 2, BatchShots: batchShots})
		log2, err := wal.Open(walPath, wal.WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		coord2 := newCoordinator(t, pool, coordinator.Config{WAL: log2})
		job2, ok := coord2.Job(job1.ID())
		if !ok {
			t.Fatalf("recovered coordinator does not know batch %s", job1.ID())
		}
		results, err := job2.Wait(ctx)
		if err != nil {
			t.Fatalf("recovered job: %v", err)
		}
		checkParity(t, reqs, results)
	})
}

// TestCoordinatorWALParentRecord replays a journal written in the
// accepted-record shape of earlier coordinators (chip plus requests
// carrying source, shots, seed, tag and backend), seeded as literal
// bytes, and checks the batch finishes bit-identically.
func TestCoordinatorWALParentRecord(t *testing.T) {
	const (
		shots      = 64
		batchShots = 16
	)
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	log, err := wal.Open(walPath, wal.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	record := `{"chip":"twoqubit","requests":[` +
		`{"source":"SMIS S0, {0}\nSMIS S2, {0, 2}\nSMIT T0, {(0, 2)}\nQWAIT 10000\nH S0\nCNOT T0\n2, MEASZ S2\nQWAIT 50\nSTOP\n","shots":64,"seed":9,"tag":"bell","backend":"statevector"},` +
		`{"source":"SMIS S0, {0}\nQWAIT 10000\nX S0\nMEASZ S0\nQWAIT 50\nSTOP\n","shots":64,"seed":3,"tag":"flip"}]}`
	if err := log.Append(wal.Entry{Kind: wal.KindAccepted, Batch: "coord-000042", Index: -1, Data: []byte(record)}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	pool := startWorkers(t, 2, service.Config{Workers: 2, BatchShots: batchShots})
	reopened, err := wal.Open(walPath, wal.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	coord := newCoordinator(t, pool, coordinator.Config{WAL: reopened})
	job, ok := coord.Job("coord-000042")
	if !ok {
		t.Fatal("coordinator did not recover the journaled batch")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("recovered job: %v", err)
	}
	for i, want := range []struct {
		src     string
		seed    int64
		tag     string
		backend string
	}{
		{service.SmokePrograms()["bell"], 9, "bell", eqasm.BackendStateVector},
		{service.SmokePrograms()["flip"], 3, "flip", ""},
	} {
		opts := eqasm.RunOptions{Shots: shots, Seed: want.seed, Backend: want.backend, Workers: shots / batchShots}
		if ref := simRun(t, assemble(t, want.src), opts).Histogram; !maps.Equal(results[i].Histogram, ref) {
			t.Errorf("%s: recovered histogram %v, simulator %v", want.tag, results[i].Histogram, ref)
		}
		if want.backend != "" && results[i].Backend != want.backend {
			t.Errorf("%s: ran on %q, journal asked for %q", want.tag, results[i].Backend, want.backend)
		}
		if tag := job.Requests()[i].Tag; tag != want.tag {
			t.Errorf("request %d: tag %q, want %q", i, tag, want.tag)
		}
	}
}

// TestCoordinatorAffinity checks content-hash routing does what it is
// for: repeated submissions of one program land on one worker and turn
// into plan-cache hits there, while the other worker never sees it.
func TestCoordinatorAffinity(t *testing.T) {
	const runs = 6
	pool := startWorkers(t, 2, service.Config{Workers: 1, BatchShots: 32})
	coord := newCoordinator(t, pool, coordinator.Config{})

	src := service.SmokePrograms()["bell"]
	prog := assemble(t, src)
	target, err := coord.RouteURL(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		if _, err := coord.Run(context.Background(), prog, eqasm.RunOptions{Shots: 32, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.svcs[target].Stats()
	if st.PlanCacheHits != runs-1 {
		t.Errorf("target plan_cache_hits = %d, want %d (affinity should keep the program warm)", st.PlanCacheHits, runs-1)
	}
	for url, svc := range pool.svcs {
		if url == target {
			continue
		}
		if got := svc.Stats().ShotsExecuted; got != 0 {
			t.Errorf("non-affine worker executed %d shots, want 0", got)
		}
	}
}

// TestCoordinatorDrainAwareRouting drains the worker a program is
// affine to and checks new work routes around it — the rolling-restart
// story: drain, wait for the coordinator to notice, restart.
func TestCoordinatorDrainAwareRouting(t *testing.T) {
	pool := startWorkers(t, 2, service.Config{Workers: 1, BatchShots: 32})
	coord := newCoordinator(t, pool, coordinator.Config{})

	src := service.SmokePrograms()["flip"]
	prog := assemble(t, src)
	target, err := coord.RouteURL(prog)
	if err != nil {
		t.Fatal(err)
	}
	pool.svcs[target].Drain()

	// Wait for a probe to observe the drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var drained bool
		for _, w := range coord.Stats().WorkerPool {
			if w.URL == target && (w.Draining || !w.Healthy) {
				drained = true
			}
		}
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never observed the drain")
		}
		time.Sleep(2 * time.Millisecond)
	}

	res, err := coord.Run(context.Background(), prog, eqasm.RunOptions{Shots: 32, Seed: 3})
	if err != nil {
		t.Fatalf("run against drained pool: %v", err)
	}
	if res.Shots != 32 {
		t.Fatalf("ran %d shots, want 32", res.Shots)
	}
	if got := pool.svcs[target].Stats().ShotsExecuted; got != 0 {
		t.Errorf("drained worker executed %d shots, want 0", got)
	}
}

// TestCoordinatorRunStream checks the Backend stream surface: one
// ShotResult per shot, replayed from the worker's histogram.
func TestCoordinatorRunStream(t *testing.T) {
	const shots = 48
	pool := startWorkers(t, 2, service.Config{Workers: 2, BatchShots: 16})
	coord := newCoordinator(t, pool, coordinator.Config{})

	ch, err := coord.RunStream(context.Background(), assemble(t, service.SmokePrograms()["flip"]), eqasm.RunOptions{Shots: shots, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sr := range ch {
		if sr.Err != nil {
			t.Fatalf("stream error: %v", sr.Err)
		}
		if sr.Key != "1" {
			t.Fatalf("flip produced outcome %q, want \"1\"", sr.Key)
		}
		n++
	}
	if n != shots {
		t.Fatalf("streamed %d shots, want %d", n, shots)
	}
}

// flakyTransport fails the first n round trips with a dial error (or
// a non-dial error when op is set), then delegates.
type flakyTransport struct {
	n    int
	op   string
	next http.RoundTripper
	seen int
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.seen++
	if f.n > 0 {
		f.n--
		op := f.op
		if op == "" {
			op = "dial"
		}
		return nil, &net.OpError{Op: op, Net: "tcp", Err: syscall.ECONNREFUSED}
	}
	return f.next.RoundTrip(r)
}

// TestClientRetryTransient checks WithRetry: dial errors (the request
// never reached a server) retry with backoff until the budget runs
// out; anything else fails fast.
func TestClientRetryTransient(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, Machine: []eqasm.Option{eqasm.WithSeed(1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.New(svc).Handler())
	defer ts.Close()
	prog := assemble(t, service.SmokePrograms()["flip"])

	// Two dial failures, then success: a retry budget of 3 covers it.
	flaky := &flakyTransport{n: 2, next: ts.Client().Transport}
	client := eqasm.NewClient(ts.URL,
		eqasm.WithHTTPClient(&http.Client{Transport: flaky}),
		eqasm.WithPollInterval(2*time.Millisecond),
		eqasm.WithRetry(3, time.Millisecond))
	res, err := client.Run(context.Background(), prog, eqasm.RunOptions{Shots: 4, Seed: 1})
	if err != nil {
		t.Fatalf("run through flaky transport: %v", err)
	}
	if res.Shots != 4 {
		t.Fatalf("ran %d shots, want 4", res.Shots)
	}

	// Budget exhausted: four dial failures beat a budget of 2.
	flaky = &flakyTransport{n: 4, next: ts.Client().Transport}
	client = eqasm.NewClient(ts.URL,
		eqasm.WithHTTPClient(&http.Client{Transport: flaky}),
		eqasm.WithRetry(2, time.Millisecond))
	if _, err := client.Run(context.Background(), prog, eqasm.RunOptions{Shots: 4, Seed: 1}); err == nil {
		t.Fatal("run succeeded through a transport that always refuses")
	}
	if flaky.seen != 3 {
		t.Errorf("transport saw %d attempts, want 3 (1 + 2 retries)", flaky.seen)
	}

	// Non-dial errors are not retried: the request may have executed.
	flaky = &flakyTransport{n: 1, op: "read", next: ts.Client().Transport}
	client = eqasm.NewClient(ts.URL,
		eqasm.WithHTTPClient(&http.Client{Transport: flaky}),
		eqasm.WithRetry(3, time.Millisecond))
	if _, err := client.Run(context.Background(), prog, eqasm.RunOptions{Shots: 4, Seed: 1}); err == nil {
		t.Fatal("non-dial transport error was retried into success")
	}
	if flaky.seen != 1 {
		t.Errorf("transport saw %d attempts, want 1 (non-dial errors fail fast)", flaky.seen)
	}
}

// TestServiceDrainSignals checks the drain surface the coordinator and
// rolling restarts depend on: draining stats, 503 healthz, and
// ErrDraining (an ErrClosed) on new submits while admitted work
// finishes.
func TestServiceDrainSignals(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, Machine: []eqasm.Option{eqasm.WithSeed(1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.New(svc).Handler())
	defer ts.Close()
	client := eqasm.NewClient(ts.URL,
		eqasm.WithHTTPClient(ts.Client()),
		eqasm.WithPollInterval(2*time.Millisecond))
	prog := assemble(t, service.SmokePrograms()["flip"])

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueCapacity <= 0 {
		t.Errorf("queue_capacity = %d, want > 0", st.QueueCapacity)
	}
	if st.Draining {
		t.Error("fresh service reports draining")
	}

	svc.Drain()
	if st, err = client.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Error("drained service does not report draining")
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	_, err = client.Run(context.Background(), prog, eqasm.RunOptions{Shots: 4, Seed: 1})
	if err == nil {
		t.Fatal("submit to draining service succeeded")
	}
	var se *eqasm.ServiceError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit to draining service: %v, want HTTP 503 ServiceError", err)
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Errorf("error %q does not mention draining", err)
	}
	if err := svc.DrainWait(context.Background()); err != nil {
		t.Fatalf("drain wait: %v", err)
	}
}

// benchBackendRuns drives b.N small runs through any Backend — the
// per-request overhead probe for the routing tier.
func benchBackendRuns(b *testing.B, backend eqasm.Backend, prog *eqasm.Program) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Run(context.Background(), prog, eqasm.RunOptions{Shots: 32, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinatorRequests compares small-request round trips:
// straight to one worker, through the coordinator, and through the
// coordinator with a durable (fsynced) journal — the cost of routing
// and of durability on the admission path.
func BenchmarkCoordinatorRequests(b *testing.B) {
	pool := startWorkers(b, 2, service.Config{Workers: 2, BatchShots: 32})
	prog := assemble(b, service.SmokePrograms()["flip"])
	b.Run("direct", func(b *testing.B) {
		client := eqasm.NewClient(pool.urls[0], eqasm.WithPollInterval(2*time.Millisecond))
		benchBackendRuns(b, client, prog)
	})
	b.Run("coordinator", func(b *testing.B) {
		benchBackendRuns(b, newCoordinator(b, pool, coordinator.Config{}), prog)
	})
	b.Run("coordinator-wal", func(b *testing.B) {
		log, err := wal.Open(filepath.Join(b.TempDir(), "bench.wal"))
		if err != nil {
			b.Fatal(err)
		}
		benchBackendRuns(b, newCoordinator(b, pool, coordinator.Config{WAL: log}), prog)
	})
}

// BenchmarkCoordinatorShots compares bulk throughput on a two-program
// batch: one worker running both programs versus the coordinator
// spreading them across two workers by content hash (distinct programs
// rank to distinct workers; one program's shots stay put for cache
// warmth, so scale-out comes from program diversity).
func BenchmarkCoordinatorShots(b *testing.B) {
	const shots = 200_000
	pool := startWorkers(b, 2, service.Config{Workers: 2, BatchShots: 10_000})
	smoke := service.SmokePrograms()
	reqs := []eqasm.RunRequest{
		{Program: assemble(b, smoke["bell"]), Options: eqasm.RunOptions{Shots: shots, Seed: 3}},
		{Program: assemble(b, smoke["active_reset"]), Options: eqasm.RunOptions{Shots: shots, Seed: 4}},
	}
	bench := func(b *testing.B, backend eqasm.Backend) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := backend.Submit(context.Background(), reqs...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := job.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(2*shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	}
	b.Run("direct-1worker", func(b *testing.B) {
		bench(b, eqasm.NewClient(pool.urls[0], eqasm.WithPollInterval(2*time.Millisecond)))
	})
	b.Run("coordinator-2workers", func(b *testing.B) {
		bench(b, newCoordinator(b, pool, coordinator.Config{}))
	})
}
