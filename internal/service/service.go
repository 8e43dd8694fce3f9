// Package service is the concurrent eQASM execution engine: the
// classical host's serving layer of Fig. 1, grown into a job service.
// Clients submit eQASM source, cQASM circuit text (Format "cqasm",
// compiled server-side through the pass pipeline) or hardware-
// independent circuit structures as batch jobs (SubmitBatch): N
// programs admitted as one unit, with per-request histograms and
// statuses. The service assembles or compiles each program once
// and caches the result by content hash, and a bounded pool of workers
// fans every request's shots out as batches over independent QuMA_v2
// machines, aggregating the measurement outcomes into per-request
// histograms. Each request splits and derives its seeds independently
// of its batch position, so results are bit-identical whether a
// program is submitted alone or inside a batch.
//
// Concurrency model (the shared-mutable-state audit of the stack):
//
//   - machines are not concurrency safe, so every batch runs through
//     the shared eqasm.Simulator with Workers == 1 on its own pooled
//     machine; random streams derive from the job seed plus the batch
//     index, making results reproducible for a fixed BatchShots.
//   - the assembler and emitter behind eqasm.Assemble/Compile keep no
//     per-call state, so concurrent submitters resolve freely.
//   - the topology and operation configuration are read-only after
//     construction and are interned by the eqasm package, so every
//     batch of every job shares one machine pool.
//   - eqasm.Program values returned by the cache are immutable: one
//     assembled program is shared by all batches of all jobs that hash
//     to it.
//   - eqasm.WithMockMeasure functions, if configured, are called from
//     worker goroutines and must be safe for concurrent use.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eqasm"
)

var (
	// ErrClosed reports a submit to a service that is shutting down.
	ErrClosed = errors.New("service: closed")
	// ErrDraining reports a submit to a service that is draining: it is
	// finishing admitted work but accepts nothing new (rolling-restart
	// drain; the client should resubmit elsewhere). It matches ErrClosed
	// under errors.Is — draining is a closing service — so pre-drain
	// callers keep working.
	ErrDraining error = drainingError{}
	// ErrQueueFull reports that the bounded batch queue cannot hold the
	// job (backpressure; the client should retry or shed load).
	ErrQueueFull = errors.New("service: queue full")
	// ErrNotDone reports a Result call on an unfinished job.
	ErrNotDone = errors.New("service: job not done")
)

// drainingError lets ErrDraining also match ErrClosed under errors.Is.
type drainingError struct{}

func (drainingError) Error() string        { return "service: draining" }
func (drainingError) Is(target error) bool { return target == ErrClosed }

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued shot batches; a
	// SubmitBatch that would overflow it fails with ErrQueueFull.
	// Default 256.
	QueueDepth int
	// CacheSize bounds the assembled-program cache (LRU entries).
	// Default 128.
	CacheSize int
	// BatchShots is the number of shots dispatched to a worker as one
	// unit; a job with more shots is split over several batches (and
	// therefore several workers). Default 32.
	BatchShots int
	// MaxJobBatches caps one job's batch count: bigger jobs get
	// proportionally bigger batches instead of flooding the queue, so a
	// single huge job still fits in QueueDepth while keeping more than
	// enough fan-out to saturate the pool. Default 64.
	MaxJobBatches int
	// RetainJobs bounds how many finished jobs stay queryable by ID.
	// Default 1024.
	RetainJobs int
	// InitWaitCycles idles the chip before a compiled circuit's first
	// operation (initialisation by relaxation). Default 10000 (200 us),
	// as in Fig. 3. Source jobs control their own QWAITs.
	InitWaitCycles int
	// SOMQ enables single-operation-multiple-qubit combining when
	// emitting compiled circuits.
	SOMQ bool
	// Machine configures the execution stack shared by all jobs:
	// topology, operation set, instantiation, noise, instrumentation
	// and the base seed of every derived batch seed (eqasm.WithSeed).
	Machine []eqasm.Option
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.BatchShots <= 0 {
		c.BatchShots = 32
	}
	if c.MaxJobBatches <= 0 {
		c.MaxJobBatches = 64
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.InitWaitCycles <= 0 {
		c.InitWaitCycles = 10000
	}
	return c
}

// Service is a running execution engine. Create with New, submit with
// SubmitBatch, stop with Shutdown (drain) or Close (cancel).
type Service struct {
	cfg Config
	// sim is the shared execution backend: it pools reseedable
	// machines per instruction-set context, so a batch checkout is
	// bit-identical to a freshly built machine at the batch seed.
	sim   *eqasm.Simulator
	cache *ProgramCache
	queue *batchQueue

	workersWG sync.WaitGroup
	jobsWG    sync.WaitGroup

	// draining mirrors "closed but still finishing admitted work" for
	// the stats and health endpoints, so a routing tier can stop
	// steering new work here before submits start bouncing.
	draining atomic.Bool

	mu      sync.Mutex
	closed  bool
	jobs    map[string]*Job
	retired []string // finished job IDs in retirement order

	jobSeq  atomic.Int64
	metrics metrics

	// profMu guards gateProfile, the service-wide kernel execution
	// profile: static instruction sites per kernel kind weighted by the
	// shots that replayed them.
	profMu      sync.Mutex
	gateProfile map[string]int64
}

// metrics are the service's atomic counters and gauges.
type metrics struct {
	jobsSubmitted     atomic.Int64
	jobsCompleted     atomic.Int64
	jobsFailed        atomic.Int64
	jobsCancelled     atomic.Int64
	jobsRejected      atomic.Int64
	requestsSubmitted atomic.Int64
	batchJobs         atomic.Int64
	shotsExecuted     atomic.Int64
	stabilizerShots   atomic.Int64
	batchesRun        atomic.Int64
	inflightShots     atomic.Int64
	workersBusy       atomic.Int64
	runNs             atomic.Int64
	planHits          atomic.Int64
	planMisses        atomic.Int64
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Workers     int `json:"workers"`
	WorkersBusy int `json:"workers_busy"`
	QueueDepth  int `json:"queue_depth"`
	// QueueCapacity is the queue's slot bound (Config.QueueDepth) —
	// with QueueDepth, the load signal the coordinator's backpressure
	// spill reads, so capacity pressure is visible before a submit
	// bounces with ErrQueueFull.
	QueueCapacity int `json:"queue_capacity"`
	// InflightShots counts shots currently executing on the workers.
	InflightShots int64 `json:"inflight_shots"`
	// Draining reports the service has stopped accepting new work and
	// is finishing what it admitted (Drain); a routing tier takes this
	// worker out of rotation without failing its in-flight jobs.
	Draining      bool  `json:"draining,omitempty"`
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsActive    int64 `json:"jobs_active"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	JobsRejected  int64 `json:"jobs_rejected"`
	// RequestsSubmitted counts program requests across all jobs (a
	// batch of N adds N); BatchJobs counts jobs submitted with more
	// than one request.
	RequestsSubmitted int64 `json:"requests_submitted"`
	BatchJobs         int64 `json:"batch_jobs"`
	ShotsExecuted     int64 `json:"shots_executed"`
	// StabilizerShots counts the subset of ShotsExecuted that ran on the
	// Gottesman–Knill stabilizer-tableau backend (selected explicitly or
	// by auto-detection of noiseless Clifford-only plans).
	StabilizerShots int64 `json:"stabilizer_shots"`
	BatchesRun      int64 `json:"batches_run"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheEntries    int   `json:"cache_entries"`
	// PlanCacheHits/Misses count execution-plan reuse: a job whose
	// program already carried its lowered decode-once plan (built once
	// per cached program, shared by every batch and pooled machine)
	// versus one that had to lower it at submit time.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	// RunNs is the cumulative wall time workers spent executing batches.
	RunNs int64 `json:"run_ns"`
	// GateProfile aggregates executed kernel work across all batches:
	// for each kernel kind the plan actually executed ("gate1.hadamard",
	// "gate2.cnot", "measure", ..., and on fused runs the fused.*
	// kernel kinds plus the fusion.* site counters), the per-shot
	// application count weighted by the shots that replayed it.
	GateProfile map[string]int64 `json:"gate_profile,omitempty"`
}

// New builds and starts a service; the worker pool runs until Shutdown
// or Close.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	// The simulator resolves and validates the machine options once
	// (fail fast on an unusable template instead of failing every
	// batch) and pools machines for all batches of all jobs.
	sim, err := eqasm.NewSimulator(cfg.Machine...)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   cfg,
		sim:   sim,
		cache: NewProgramCache(cfg.CacheSize),
		queue: newBatchQueue(cfg.QueueDepth),
		jobs:  map[string]*Job{},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workersWG.Add(1)
		go func() {
			defer s.workersWG.Done()
			s.workerLoop()
		}()
	}
	return s, nil
}

// SubmitBatch validates, resolves and enqueues a batch of requests as
// one job: one queue admission, one retirement, per-request histograms
// and statuses. Every request splits into shot batches exactly as a
// single-request job with the same shot count would, so per-request
// results are bit-identical to submitting each request on its own (at
// the same seeds). ctx cancellation propagates to the whole batch.
func (s *Service) SubmitBatch(ctx context.Context, spec BatchSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		s.metrics.jobsRejected.Add(1)
		return nil, err
	}
	for i, r := range spec.Requests {
		if r.Chip != "" && r.Chip != s.sim.Chip() {
			s.metrics.jobsRejected.Add(1)
			return nil, fmt.Errorf("service: request %d targets chip %q, this service runs %q",
				i, r.Chip, s.sim.Chip())
		}
	}
	spec = spec.withDefaults()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.jobsRejected.Add(1)
		return nil, s.closedErr()
	}
	s.mu.Unlock()

	reqs := make([]*requestRun, len(spec.Requests))
	for i, rs := range spec.Requests {
		prog, cacheHit, assembleTime, err := s.resolve(rs)
		if err != nil {
			s.metrics.jobsRejected.Add(1)
			if len(spec.Requests) > 1 {
				err = fmt.Errorf("request %d: %w", i, err)
			}
			return nil, err
		}
		reqs[i] = &requestRun{
			spec:         rs,
			program:      prog,
			cacheHit:     cacheHit,
			assembleTime: assembleTime,
			state:        StateQueued,
		}
	}

	seq := s.jobSeq.Add(1)
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", seq),
		priority:  spec.Priority,
		seq:       seq,
		svc:       s,
		submitted: time.Now(),
		state:     StateQueued,
		reqs:      reqs,
		done:      make(chan struct{}),
	}
	job.runCtx, job.cancelRun = context.WithCancelCause(context.Background())
	for _, r := range reqs {
		r.runCtx, r.cancelRun = context.WithCancelCause(job.runCtx)
	}
	batches := job.split(s.cfg)
	// Each request's split is position-independent (that is what makes
	// batch results bit-identical to solo submissions), so a batch of
	// many huge requests can legitimately need more slots than the
	// queue holds — reject it explicitly rather than letting the
	// all-or-nothing push fail forever on an idle service.
	if len(batches) > s.cfg.QueueDepth {
		job.cancelRun(nil)
		for _, r := range reqs {
			r.cancelRun(nil)
		}
		s.metrics.jobsRejected.Add(1)
		return nil, fmt.Errorf("%w: batch of %d requests needs %d queue slots, queue holds %d (split the batch or raise QueueDepth)",
			ErrQueueFull, len(reqs), len(batches), s.cfg.QueueDepth)
	}
	job.remaining = len(batches)
	// Wire ctx cancellation before any batch can run, so finalize never
	// races the watcher's installation.
	if ctx != nil && ctx.Done() != nil {
		job.stopWatch = context.AfterFunc(ctx, func() { job.cancel(context.Cause(ctx)) })
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejectJob(job)
		return nil, s.closedErr()
	}
	// Registration and enqueue happen under one lock so Shutdown's
	// drain cannot miss a job between the closed check and the push.
	if !s.queue.tryPush(batches) {
		s.mu.Unlock()
		s.rejectJob(job)
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.jobsWG.Add(1)
	s.mu.Unlock()

	s.metrics.jobsSubmitted.Add(1)
	s.metrics.requestsSubmitted.Add(int64(len(reqs)))
	if len(reqs) > 1 {
		s.metrics.batchJobs.Add(1)
	}
	return job, nil
}

// Job returns a submitted job by ID (including recently finished ones,
// bounded by Config.RetainJobs).
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// resolve turns a request spec into an assembled program via the
// content cache. The program's decode-once execution plan is built here
// too — at submit time, never on the shot hot path — and cached
// alongside the source on the program object itself, so a
// cache-resident program plans exactly once for all jobs and batches
// that hash to it.
func (s *Service) resolve(spec RequestSpec) (prog *eqasm.Program, hit bool, d time.Duration, err error) {
	key, err := spec.CacheKey()
	if err != nil {
		return nil, false, 0, err
	}
	if p, ok := s.cache.Get(key); ok {
		if err := s.preparePlan(p); err != nil {
			return nil, false, 0, err
		}
		return p, true, 0, nil
	}
	start := time.Now()
	switch {
	case spec.Circuit != nil:
		prog, err = s.compile(spec.Circuit)
	case spec.Format == FormatCQASM:
		prog, err = eqasm.CompileCircuit(spec.Source, s.compileOpts()...)
	case spec.Format == FormatOpenQASM:
		prog, err = eqasm.CompileOpenQASM(spec.Source, s.compileOpts()...)
	default:
		prog, err = eqasm.Assemble(spec.Source, s.cfg.Machine...)
	}
	if err != nil {
		return nil, false, 0, err
	}
	if err := s.preparePlan(prog); err != nil {
		return nil, false, 0, err
	}
	s.cache.Put(key, prog)
	return prog, false, time.Since(start), nil
}

// preparePlan forces the program's execution plan and accounts the
// reuse counters.
func (s *Service) preparePlan(p *eqasm.Program) error {
	cached, err := p.Prepare()
	if err != nil {
		return err
	}
	if cached {
		s.metrics.planHits.Add(1)
	} else {
		s.metrics.planMisses.Add(1)
	}
	return nil
}

// compileOpts is the option set for server-side circuit compilation:
// the machine context plus the service's scheduling policy.
func (s *Service) compileOpts() []eqasm.Option {
	opts := append(append([]eqasm.Option{}, s.cfg.Machine...),
		eqasm.WithInitWaitCycles(s.cfg.InitWaitCycles))
	if s.cfg.SOMQ {
		opts = append(opts, eqasm.WithSOMQ())
	}
	return opts
}

// compile schedules a hardware-independent circuit and emits executable
// eQASM for the service's chip.
func (s *Service) compile(c *eqasm.Circuit) (*eqasm.Program, error) {
	return eqasm.Compile(c, s.compileOpts()...)
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	active := int64(0)
	for _, j := range s.jobs {
		st := j.Status()
		if st == StateQueued || st == StateRunning {
			active++
		}
	}
	s.mu.Unlock()
	hits, misses, entries := s.cache.Stats()
	var profile map[string]int64
	s.profMu.Lock()
	if len(s.gateProfile) > 0 {
		profile = make(map[string]int64, len(s.gateProfile))
		for k, v := range s.gateProfile {
			profile[k] = v
		}
	}
	s.profMu.Unlock()
	return Stats{
		Workers:           s.cfg.Workers,
		WorkersBusy:       int(s.metrics.workersBusy.Load()),
		QueueDepth:        s.queue.depth(),
		QueueCapacity:     s.cfg.QueueDepth,
		InflightShots:     s.metrics.inflightShots.Load(),
		Draining:          s.draining.Load(),
		JobsSubmitted:     s.metrics.jobsSubmitted.Load(),
		JobsActive:        active,
		JobsCompleted:     s.metrics.jobsCompleted.Load(),
		JobsFailed:        s.metrics.jobsFailed.Load(),
		JobsCancelled:     s.metrics.jobsCancelled.Load(),
		JobsRejected:      s.metrics.jobsRejected.Load(),
		RequestsSubmitted: s.metrics.requestsSubmitted.Load(),
		BatchJobs:         s.metrics.batchJobs.Load(),
		ShotsExecuted:     s.metrics.shotsExecuted.Load(),
		StabilizerShots:   s.metrics.stabilizerShots.Load(),
		BatchesRun:        s.metrics.batchesRun.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEntries:      entries,
		PlanCacheHits:     s.metrics.planHits.Load(),
		PlanCacheMisses:   s.metrics.planMisses.Load(),
		RunNs:             s.metrics.runNs.Load(),
		GateProfile:       profile,
	}
}

// closedErr picks the rejection error for a closed service: draining
// distinguishes "finishing admitted work, resubmit elsewhere" from a
// hard close.
func (s *Service) closedErr() error {
	if s.draining.Load() {
		return ErrDraining
	}
	return ErrClosed
}

// Drain stops accepting new jobs while everything already admitted
// runs to completion. Unlike Shutdown it neither blocks nor stops the
// workers, so the HTTP front end stays up and clients polling their
// jobs still see results land — the loss-free half of a rolling
// restart. Follow with DrainWait, then Shutdown or Close.
func (s *Service) Drain() {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// DrainWait blocks until every admitted job finished or ctx expires
// (in which case the jobs keep running; Close cuts them short).
func (s *Service) DrainWait(ctx context.Context) error {
	drained := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the service has stopped accepting new work
// (Drain, Shutdown or Close was called).
func (s *Service) Draining() bool { return s.draining.Load() }

// Shutdown stops accepting jobs, drains everything already queued, and
// stops the workers. It returns ctx.Err() if the drain outlives ctx (the
// service keeps draining in the background; call Close to cut it short).
func (s *Service) Shutdown(ctx context.Context) error {
	s.Drain()
	if err := s.DrainWait(ctx); err != nil {
		return err
	}
	s.queue.close()
	s.workersWG.Wait()
	return nil
}

// Close cancels every active job and stops the workers.
func (s *Service) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	s.jobsWG.Wait()
	s.queue.close()
	s.workersWG.Wait()
	return nil
}

// rejectJob accounts for a job that never entered the queue.
func (s *Service) rejectJob(j *Job) {
	if j.stopWatch != nil {
		j.stopWatch()
	}
	s.metrics.jobsRejected.Add(1)
}

// retire records a finished job and evicts the oldest finished jobs
// beyond the retention bound.
func (s *Service) retire(j *Job) {
	s.mu.Lock()
	s.retired = append(s.retired, j.ID)
	for len(s.retired) > s.cfg.RetainJobs {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
	s.mu.Unlock()
	s.jobsWG.Done()
}
