// Table-driven and concurrency tests for the execution service; all of
// them must stay clean under `go test -race`.
package service_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eqasm"
	"eqasm/internal/service"
)

func newService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// one wraps a single request as a batch.
func one(rs service.RequestSpec) service.BatchSpec {
	return service.BatchSpec{Requests: []service.RequestSpec{rs}}
}

// run submits one request as a batch and waits for it to finish.
func run(svc *service.Service, rs service.RequestSpec) (*service.Result, error) {
	job, err := svc.SubmitBatch(context.Background(), one(rs))
	if err != nil {
		return nil, err
	}
	return job.Wait(context.Background())
}

func waitResult(t *testing.T, job *service.Job) *service.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s: %v", job.ID, err)
	}
	return res
}

// A Bell job fans out over workers and aggregates a two-outcome
// histogram with perfect correlation.
func TestSubmitBell(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    4,
		BatchShots: 16,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	const shots = 300
	job, err := svc.SubmitBatch(context.Background(), one(service.RequestSpec{
		Source: service.SmokePrograms()["bell"],
		Shots:  shots,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, job)
	if job.Status() != service.StateCompleted {
		t.Fatalf("state = %s", job.Status())
	}
	if res.Shots != shots {
		t.Fatalf("shots = %d, want %d", res.Shots, shots)
	}
	total := 0
	for key, n := range res.Requests[0].Histogram {
		if key != "00" && key != "11" {
			t.Fatalf("uncorrelated Bell outcome %q (%d shots)", key, n)
		}
		total += n
	}
	if total != shots {
		t.Fatalf("histogram sums to %d, want %d", total, shots)
	}
	if res.Requests[0].Histogram["00"] == 0 || res.Requests[0].Histogram["11"] == 0 {
		t.Fatalf("degenerate Bell histogram: %v", res.Requests[0].Histogram)
	}
	if len(res.Requests[0].Qubits) != 2 || res.Requests[0].Qubits[0] != 0 || res.Requests[0].Qubits[1] != 2 {
		t.Fatalf("qubits = %v, want [0 2]", res.Requests[0].Qubits)
	}
}

// The cache assembles identical content once and accounts hits/misses.
func TestCacheHitMissAccounting(t *testing.T) {
	svc := newService(t, service.Config{Workers: 2, Machine: []eqasm.Option{eqasm.WithSeed(1)}})
	progs := service.SmokePrograms()

	res, err := run(svc, service.RequestSpec{Source: progs["flip"], Shots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("first submit reported a cache hit")
	}
	res, err = run(svc, service.RequestSpec{Source: progs["flip"], Shots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("second submit of identical source missed the cache")
	}
	if _, err = run(svc, service.RequestSpec{Source: progs["bell"], Shots: 3}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 || st.CacheEntries != 2 {
		t.Fatalf("cache stats = %d hits / %d misses / %d entries, want 1/2/2",
			st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
	// Execution plans ride on the cached programs: the two distinct
	// programs lowered once each; the cache-resident resubmit reused
	// flip's plan.
	if st.PlanCacheHits != 1 || st.PlanCacheMisses != 2 {
		t.Fatalf("plan cache stats = %d hits / %d misses, want 1/2",
			st.PlanCacheHits, st.PlanCacheMisses)
	}
}

// Many goroutines submitting concurrently all complete, and the shot
// accounting balances (run with -race).
func TestConcurrentSubmits(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    4,
		QueueDepth: 4096,
		BatchShots: 4,
		Machine:    []eqasm.Option{eqasm.WithSeed(11)},
	})
	progs := service.SmokePrograms()
	sources := []string{progs["flip"], progs["bell"], progs["active_reset"]}
	const (
		goroutines = 8
		perG       = 5
		shots      = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := run(svc, service.RequestSpec{
					Source: sources[(g+i)%len(sources)],
					Shots:  shots,
				})
				if err == nil && res.Shots != shots {
					err = fmt.Errorf("got %d shots, want %d", res.Shots, shots)
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.Stats()
	if st.JobsCompleted != goroutines*perG {
		t.Fatalf("completed %d jobs, want %d", st.JobsCompleted, goroutines*perG)
	}
	if st.ShotsExecuted != goroutines*perG*shots {
		t.Fatalf("executed %d shots, want %d", st.ShotsExecuted, goroutines*perG*shots)
	}
}

// Cancelling the Submit context mid-run stops the job at a shot
// boundary and reports the partial shot count.
func TestCancellationMidJob(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    1,
		QueueDepth: 20000,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(3)},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const shots = 100000 // far more than can run before the cancel lands
	job, err := svc.SubmitBatch(ctx, one(service.RequestSpec{
		Source: service.SmokePrograms()["bell"],
		Shots:  shots,
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Let it start, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for job.Status() == service.StateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-job.Done()
	if job.Status() != service.StateCancelled {
		t.Fatalf("state = %s, want cancelled", job.Status())
	}
	if _, err := job.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("result error = %v, want context.Canceled", err)
	}
	res, _ := job.Result()
	if res == nil || res.Shots >= shots {
		t.Fatalf("expected a partial run, got %+v", res)
	}
	if svc.Stats().JobsCancelled != 1 {
		t.Fatalf("stats: %+v", svc.Stats())
	}
}

// When queued work fills the bounded queue, further submits are
// rejected with ErrQueueFull, and the service recovers once it drains.
func TestQueueSaturation(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    1,
		QueueDepth: 4,
		BatchShots: 100000, // one batch per job
		Machine:    []eqasm.Option{eqasm.WithSeed(5)},
	})
	progs := service.SmokePrograms()
	// One job on the worker, four filling the queue.
	jobs := make([]*service.Job, 0, 5)
	for i := 0; i < 5; i++ {
		job, err := svc.SubmitBatch(context.Background(), one(service.RequestSpec{
			Source: progs["flip"], Shots: 1000,
		}))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		jobs = append(jobs, job)
		if i == 0 {
			// Make sure the worker has the first job off the queue so
			// the next four occupy all four slots.
			deadline := time.Now().Add(10 * time.Second)
			for job.Status() == service.StateQueued && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	_, err := svc.SubmitBatch(context.Background(), one(service.RequestSpec{
		Source: progs["flip"], Shots: 1,
	}))
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := svc.Stats(); st.JobsRejected != 1 || st.JobsSubmitted != 5 {
		t.Fatalf("stats after rejection: %+v", st)
	}
	// The service recovers: the backlog drains and new jobs run.
	for _, job := range jobs {
		waitResult(t, job)
	}
	res, err := run(svc, service.RequestSpec{
		Source: progs["flip"], Shots: 4,
	})
	if err != nil || res.Shots != 4 {
		t.Fatalf("post-saturation job: %v, %+v", err, res)
	}
}

// Any shot count is admissible on an idle service: batch sizes scale so
// a job never needs more queue slots than exist.
func TestHugeJobFitsSmallQueue(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		QueueDepth: 16,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(7)},
	})
	res, err := run(svc, service.RequestSpec{
		Source: service.SmokePrograms()["flip"],
		Shots:  2000, // would be 250 eight-shot batches without scaling
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 2000 {
		t.Fatalf("ran %d shots", res.Shots)
	}
}

// With a single busy worker, a high-priority job overtakes an earlier
// low-priority one.
func TestPriorityOrdering(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    1,
		QueueDepth: 4096,
		BatchShots: 8192, // one batch per job: the worker pops whole jobs
		Machine:    []eqasm.Option{eqasm.WithSeed(6)},
	})
	progs := service.SmokePrograms()
	// Occupy the only worker with one long batch so both queued jobs
	// are enqueued before the next pop.
	blocker, err := svc.SubmitBatch(context.Background(), one(service.RequestSpec{
		Source: progs["flip"], Shots: 5000,
	}))
	if err != nil {
		t.Fatal(err)
	}
	low, err := svc.SubmitBatch(context.Background(), service.BatchSpec{
		Requests: []service.RequestSpec{{Source: progs["flip"], Shots: 50}}, Priority: service.PriorityLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	high, err := svc.SubmitBatch(context.Background(), service.BatchSpec{
		Requests: []service.RequestSpec{{Source: progs["flip"], Shots: 50}}, Priority: service.PriorityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	highRes := waitResult(t, high)
	lowRes := waitResult(t, low)
	waitResult(t, blocker)
	// The single worker must have run the whole high-priority job
	// before starting the earlier-submitted low-priority one.
	if !lowRes.StartedAt.After(highRes.FinishedAt) {
		t.Fatalf("low job started %v, before high finished %v",
			lowRes.StartedAt, highRes.FinishedAt)
	}
}

// Circuits compile through the scheduler/emitter path and share the
// cache like source jobs.
func TestCircuitJob(t *testing.T) {
	svc := newService(t, service.Config{Workers: 2, Machine: []eqasm.Option{eqasm.WithSeed(8)}})
	bell := &eqasm.Circuit{
		Name:      "bell",
		NumQubits: 3, // the two-qubit chip names its qubits 0 and 2
		Gates: []eqasm.Gate{
			{Name: "H", Qubits: []int{0}},
			{Name: "CNOT", Qubits: []int{0, 2}},
			{Name: "MEASZ", Qubits: []int{0}, Measure: true},
			{Name: "MEASZ", Qubits: []int{2}, Measure: true},
		},
	}
	res, err := run(svc, service.RequestSpec{Circuit: bell, Shots: 120})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for key, n := range res.Requests[0].Histogram {
		if key != "00" && key != "11" {
			t.Fatalf("uncorrelated outcome %q", key)
		}
		total += n
	}
	if total != 120 {
		t.Fatalf("histogram sums to %d", total)
	}
	res, err = run(svc, service.RequestSpec{Circuit: bell, Shots: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("identical circuit missed the cache")
	}
}

// A program that faults at runtime fails the job without poisoning the
// service.
func TestRuntimeFailure(t *testing.T) {
	svc := newService(t, service.Config{Workers: 2, Machine: []eqasm.Option{eqasm.WithSeed(9)}})
	// LD from a negative address is a microarchitectural fault.
	_, err := run(svc, service.RequestSpec{
		Source: "LDI R1, -8\nLD R2, R1(0)\nSTOP",
		Shots:  4,
	})
	if err == nil {
		t.Fatal("expected a runtime failure")
	}
	if st := svc.Stats(); st.JobsFailed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Healthy jobs still run afterwards.
	if _, err := run(svc, service.RequestSpec{
		Source: service.SmokePrograms()["flip"], Shots: 2,
	}); err != nil {
		t.Fatal(err)
	}
}

// Invalid specs are rejected before they reach the queue.
func TestSubmitValidation(t *testing.T) {
	svc := newService(t, service.Config{Workers: 1})
	cases := []service.RequestSpec{
		{}, // neither source nor circuit
		{Source: "STOP", Circuit: &eqasm.Circuit{NumQubits: 1}}, // both
		{Source: "STOP", Shots: -1},                             // negative shots
		{Source: "STOP", Shots: service.MaxJobShots + 1},        // over the per-job cap
		{Source: "THISISNOTANOP S0\n"},                          // assembly error
	}
	for i, spec := range cases {
		if _, err := svc.SubmitBatch(context.Background(), one(spec)); err == nil {
			t.Errorf("case %d: spec %+v accepted", i, spec)
		}
	}
	if st := svc.Stats(); st.JobsRejected != int64(len(cases)) {
		t.Fatalf("rejected = %d, want %d", st.JobsRejected, len(cases))
	}
}

// Shutdown drains queued work, then refuses new submits.
func TestShutdownDrains(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		QueueDepth: 4096,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(10)},
	})
	var jobs []*service.Job
	for i := 0; i < 6; i++ {
		job, err := svc.SubmitBatch(context.Background(), one(service.RequestSpec{
			Source: service.SmokePrograms()["bell"],
			Shots:  40,
		}))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		if job.Status() != service.StateCompleted {
			t.Fatalf("job %s = %s after drain", job.ID, job.Status())
		}
	}
	if _, err := svc.SubmitBatch(context.Background(), one(service.RequestSpec{Source: "STOP"})); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
}

// Finished jobs stay queryable up to the retention bound.
func TestJobRetention(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    1,
		RetainJobs: 2,
		Machine:    []eqasm.Option{eqasm.WithSeed(12)},
	})
	var ids []string
	for i := 0; i < 3; i++ {
		job, err := svc.SubmitBatch(context.Background(), one(service.RequestSpec{
			Source: service.SmokePrograms()["flip"],
		}))
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, job)
		ids = append(ids, job.ID)
	}
	if _, ok := svc.Job(ids[0]); ok {
		t.Fatalf("job %s not evicted at retention 2", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := svc.Job(id); !ok {
			t.Fatalf("job %s evicted too early", id)
		}
	}
}

// Per-job seeds steer the random streams: the same seeded job is
// reproducible, different seeds differ.
func TestJobSeeding(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		BatchShots: 16,
		Machine:    []eqasm.Option{eqasm.WithSeed(1)},
	})
	run := func(seed int64) map[string]int {
		res, err := run(svc, service.RequestSpec{
			Source: service.SmokePrograms()["bell"],
			Shots:  64,
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Requests[0].Histogram
	}
	a, b, c := run(42), run(42), run(43)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds agreed exactly: %v", a)
	}
}

// A batch of N requests is one queued unit with per-request
// histograms, each bit-identical to the same request submitted alone
// (the per-request split and seed derivation are position-independent).
func TestSubmitBatchPerRequestParity(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    4,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	progs := service.SmokePrograms()
	spec := service.BatchSpec{Requests: []service.RequestSpec{
		{Source: progs["bell"], Shots: 40, Seed: 7, Tag: "bell"},
		{Source: progs["flip"], Shots: 25, Seed: 9, Tag: "flip"},
		{Source: progs["active_reset"], Shots: 30, Tag: "reset"},
	}}
	job, err := svc.SubmitBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.NumRequests() != 3 {
		t.Fatalf("NumRequests = %d", job.NumRequests())
	}
	res := waitResult(t, job)
	if len(res.Requests) != 3 {
		t.Fatalf("requests = %d", len(res.Requests))
	}
	wantShots := 0
	for i, rs := range spec.Requests {
		solo, err := run(svc, service.RequestSpec{
			Source: rs.Source, Shots: rs.Shots, Seed: rs.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rr := res.Requests[i]
		if rr.Index != i || rr.Tag != rs.Tag || rr.Status != service.StateCompleted {
			t.Fatalf("request %d header = %+v", i, rr)
		}
		if rr.Shots != rs.Shots {
			t.Fatalf("request %d ran %d shots, want %d", i, rr.Shots, rs.Shots)
		}
		if fmt.Sprint(rr.Histogram) != fmt.Sprint(solo.Requests[0].Histogram) {
			t.Fatalf("request %d: batch %v, solo %v", i, rr.Histogram, solo.Requests[0].Histogram)
		}
		if rr.TotalStats != solo.TotalStats {
			t.Fatalf("request %d: total stats %+v, solo %+v", i, rr.TotalStats, solo.TotalStats)
		}
		wantShots += rs.Shots
	}
	if res.Shots != wantShots {
		t.Fatalf("aggregate shots = %d, want %d", res.Shots, wantShots)
	}
	st := svc.Stats()
	if st.BatchJobs != 1 || st.RequestsSubmitted != 6 {
		t.Fatalf("batch stats = %+v", st)
	}
}

// A faulting request fails alone; its batch siblings still complete.
func TestBatchRequestFailureIsolated(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		BatchShots: 4,
		Machine:    []eqasm.Option{eqasm.WithSeed(2)},
	})
	job, err := svc.SubmitBatch(context.Background(), service.BatchSpec{
		Requests: []service.RequestSpec{
			{Source: "LDI R1, -8\nLD R2, R1(0)\nSTOP", Shots: 8, Tag: "bad"},
			{Source: service.SmokePrograms()["flip"], Shots: 12, Tag: "good"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err == nil {
		t.Fatal("batch with a faulting request completed clean")
	}
	if job.Status() != service.StateFailed {
		t.Fatalf("job state = %s", job.Status())
	}
	if res.Requests[0].Status != service.StateFailed || res.Requests[0].Error == "" {
		t.Fatalf("bad request = %+v", res.Requests[0])
	}
	good := res.Requests[1]
	if good.Status != service.StateCompleted || good.Shots != 12 || good.Histogram["1"] != 12 {
		t.Fatalf("good request = %+v", good)
	}
}

// Batch validation rejects malformed requests with a positioned error.
func TestBatchValidation(t *testing.T) {
	svc := newService(t, service.Config{Workers: 1})
	cases := []service.BatchSpec{
		{}, // empty
		{Requests: []service.RequestSpec{{Source: "STOP"}, {}}},                                 // request 1 empty
		{Requests: []service.RequestSpec{{Source: "STOP", Shots: -1}}},                          // negative shots
		{Requests: []service.RequestSpec{{Source: "STOP"}, {Source: "STOP", Seed: -4}}},         // negative seed
		{Requests: []service.RequestSpec{{Source: "STOP", Format: "qasm3"}}},                    // unknown format
		{Requests: []service.RequestSpec{{Source: "STOP"}, {Source: "FROBNICATE S0"}}},          // request 1 unassemblable
		{Requests: []service.RequestSpec{{Source: "STOP", Chip: "surface7"}, {Source: "STOP"}}}, // chip mismatch
	}
	for i, spec := range cases {
		if _, err := svc.SubmitBatch(context.Background(), spec); err == nil {
			t.Fatalf("case %d accepted: %+v", i, spec)
		}
	}
	if st := svc.Stats(); st.JobsRejected != int64(len(cases)) {
		t.Fatalf("rejected = %d, want %d", st.JobsRejected, len(cases))
	}
}

// A batch whose position-independent split needs more queue slots than
// the queue can ever hold is rejected up front with an explicit
// ErrQueueFull (not retried into a permanent silent failure).
func TestBatchExceedingQueueCapacityRejected(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    1,
		QueueDepth: 4,
		BatchShots: 1,
	})
	reqs := make([]service.RequestSpec, 6) // 6 one-shot requests > 4 slots
	for i := range reqs {
		reqs[i] = service.RequestSpec{Source: service.SmokePrograms()["flip"]}
	}
	_, err := svc.SubmitBatch(context.Background(), service.BatchSpec{Requests: reqs})
	if !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if !strings.Contains(err.Error(), "queue holds 4") {
		t.Fatalf("error lacks capacity guidance: %v", err)
	}
	// A batch that fits still runs.
	if _, err := svc.SubmitBatch(context.Background(),
		service.BatchSpec{Requests: reqs[:4]}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a request failure must not disarm job-level
// cancellation — Cancel after one request failed still stops the
// surviving siblings at a shot boundary.
func TestCancelAfterRequestFailure(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		QueueDepth: 10000,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(6)},
	})
	job, err := svc.SubmitBatch(context.Background(), service.BatchSpec{
		Requests: []service.RequestSpec{
			{Source: "LDI R1, -8\nLD R2, R1(0)\nSTOP", Shots: 1, Tag: "bad"},
			{Source: service.SmokePrograms()["bell"], Shots: 50_000_000, Tag: "long"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the failure to land, then cancel the rest of the batch.
	deadline := time.Now().Add(10 * time.Second)
	for job.Requests()[0].Status != service.StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("bad request stuck in %q", job.Requests()[0].Status)
		}
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, _ := job.Wait(ctx)
	if res == nil {
		t.Fatal("cancelled batch never finished")
	}
	long := res.Requests[1]
	if long.Status != service.StateCancelled {
		t.Fatalf("long request = %q, want cancelled", long.Status)
	}
	if long.Shots >= 50_000_000 {
		t.Fatal("long request ran to completion despite Cancel")
	}
}

// The backend field plumbs through to execution (per-request result
// names the simulator that ran), the stabilizer-shot counter tracks
// tableau-path work, and the service-wide gate profile aggregates
// kernel sites weighted by shots. An unknown backend name is rejected
// at validation.
func TestBackendSelectionAndStats(t *testing.T) {
	svc := newService(t, service.Config{
		Workers:    2,
		BatchShots: 16,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	const shots = 64
	bell := service.SmokePrograms()["bell"]

	// Forced state vector first: no stabilizer shots yet.
	res := waitResult(t, mustSubmit(t, svc, service.RequestSpec{
		Source: bell, Shots: shots, Backend: eqasm.BackendStateVector,
	}))
	if got := res.Requests[0].Backend; got != eqasm.BackendStateVector {
		t.Fatalf("request backend = %q, want %q", got, eqasm.BackendStateVector)
	}
	if st := svc.Stats(); st.StabilizerShots != 0 {
		t.Fatalf("stabilizer shots = %d before any tableau run", st.StabilizerShots)
	}

	// Auto-selection routes the noiseless Clifford-only Bell program to
	// the tableau and the counter follows.
	res = waitResult(t, mustSubmit(t, svc, service.RequestSpec{Source: bell, Shots: shots}))
	if got := res.Requests[0].Backend; got != eqasm.BackendStabilizer {
		t.Fatalf("auto request backend = %q, want %q", got, eqasm.BackendStabilizer)
	}
	st := svc.Stats()
	if st.StabilizerShots != shots {
		t.Fatalf("stabilizer shots = %d, want %d", st.StabilizerShots, shots)
	}
	if st.ShotsExecuted != 2*shots {
		t.Fatalf("shots executed = %d, want %d", st.ShotsExecuted, 2*shots)
	}
	// The profile aggregates the kernels each job actually executed,
	// weighted by shots. The state-vector job ran fused: the H folds
	// into the CNOT, so its 2 gate applications per shot surface as one
	// fused 4×4 kernel plus one elided site, and its measurement reads
	// both qubits of S2 (2 applications). The stabilizer job executes
	// per-site kernels and reports the static site counts (1 H site,
	// 1 CNOT site, 1 measure site).
	want := map[string]int{
		"fused.gate2.generic": shots,     // SV: fused H·CNOT kernel
		"fusion.elided":       shots,     // SV: the folded H application
		"fusion.sites.total":  2 * shots, // SV: all gate applications
		"fusion.sites.fused":  2 * shots, // SV: ... all participated
		"gate1.hadamard":      shots,     // stabilizer: static H site
		"gate2.perm":          shots,     // stabilizer: static CNOT site
		"measure":             3 * shots, // SV 2 applications + stabilizer 1 site
	}
	for kind, n := range want {
		if got := st.GateProfile[kind]; got != int64(n) {
			t.Fatalf("gate profile %q = %d, want %d (profile: %v)", kind, got, n, st.GateProfile)
		}
	}

	if _, err := svc.SubmitBatch(context.Background(), one(service.RequestSpec{
		Source: bell, Shots: 1, Backend: "tensor-network",
	})); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend error = %v", err)
	}
}

func mustSubmit(t *testing.T, svc *service.Service, spec service.RequestSpec) *service.Job {
	t.Helper()
	job, err := svc.SubmitBatch(context.Background(), one(spec))
	if err != nil {
		t.Fatal(err)
	}
	return job
}
