// Package coordinator implements the sharded serving tier: a routing
// front end that fans batch work out across a pool of eqasm-serve
// workers and survives failures on both sides of the split.
//
// The coordinator is an eqasm.Backend — callers hold the same Job
// handle they get from a Simulator or a Client — whose Submit routes
// each request to a worker over the /v1/batches wire protocol (via
// eqasm.Client) instead of executing it locally. Three mechanisms make
// the tier production-shaped:
//
//   - Content-hash affinity. Requests route by rendezvous hashing over
//     the sha256 of their program text — the same content hash the
//     workers key their program caches on — so repeated submissions of
//     one program land on one worker and hit its warm decode plans,
//     while distinct programs spread across the pool.
//
//   - Health and backpressure. A probe loop samples each worker's
//     /v1/stats; unreachable or draining workers leave the eligible
//     set, and a worker whose queue is past the spill high-water mark
//     sheds new work to the next-ranked worker. Requests stranded by a
//     worker that dies mid-batch are re-queued onto survivors —
//     bit-identical re-execution, because shot seeds derive from the
//     request's own base seed, never from placement.
//
//   - Durability. Every accepted batch is journaled to a write-ahead
//     log (internal/wal) before the caller gets its handle, and every
//     terminal per-request outcome afterward. A coordinator restarted
//     over the same log re-admits unfinished batches, reapplies the
//     results that made it to disk, and re-dispatches only the rest.
//
// Close is deliberately crash-equivalent: it abandons in-flight
// batches without journaling completion, exactly as a crash would, so
// recovery needs no cooperation from the previous process.
package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eqasm"
	"eqasm/internal/service"
	"eqasm/internal/wal"
	"eqasm/internal/wire"
)

// Config parameterizes a Coordinator. Workers is required; everything
// else has serving defaults.
type Config struct {
	// Workers is the pool: base URLs of eqasm-serve instances. All
	// workers must simulate the same chip as Machine resolves to.
	Workers []string
	// Machine configures the coordinator's own view of the stack
	// (topology, compile options) used to resolve wire submissions and
	// re-assemble journaled batches. It must match the workers'.
	Machine []eqasm.Option
	// Client options apply to every worker link (timeouts, retry
	// policy). A bounded dial-retry is installed by default.
	Client []eqasm.ClientOption
	// HealthInterval is the worker probe period. Default 500ms.
	HealthInterval time.Duration
	// SpillHighWater is the queue-fullness fraction (depth/capacity)
	// at which affinity yields to load and new work spills to the
	// next-ranked worker. Default 0.75.
	SpillHighWater float64
	// MaxAttempts bounds dispatch attempts per request before the
	// coordinator gives up on it. Default 3.
	MaxAttempts int
	// CacheSize bounds the coordinator's own resolved-program cache
	// (wire submissions). Default 128.
	CacheSize int
	// RetainJobs bounds how many finished jobs stay queryable by ID.
	// Default 1024.
	RetainJobs int
	// WorkerWait is how long a batch waits for an eligible worker to
	// appear before failing. Default 5s.
	WorkerWait time.Duration
	// WAL is the durable job log. Default wal.Nop() — no durability;
	// pass an opened *wal.FileLog to survive coordinator restarts.
	WAL wal.Log
}

// errClosing is the cancellation cause Close injects into in-flight
// batches; drive recognizes it and abandons without journaling
// completion (crash-equivalent shutdown).
var errClosing = errors.New("coordinator: closing")

// Coordinator routes batches across a worker pool. It implements
// eqasm.Backend and the wire-serving httpapi.BatchBackend contract.
type Coordinator struct {
	cfg     Config
	chip    string
	cache   *service.ProgramCache
	log     wal.Log
	workers []*worker

	seq        atomic.Int64
	wg         sync.WaitGroup // drive goroutines
	healthWG   sync.WaitGroup
	stopHealth chan struct{}

	mu              sync.Mutex
	closed          bool
	jobs            map[string]*pending
	retired         []string
	liveJobs        int
	sinceCheckpoint int

	metrics struct {
		jobsSubmitted     atomic.Int64
		jobsCompleted     atomic.Int64
		jobsFailed        atomic.Int64
		jobsCancelled     atomic.Int64
		requestsSubmitted atomic.Int64
		dispatches        atomic.Int64
		spills            atomic.Int64
		requeues          atomic.Int64
		recovered         atomic.Int64
		walRecords        atomic.Int64
		walErrors         atomic.Int64
	}
}

var _ eqasm.Backend = (*Coordinator)(nil)

// New builds the coordinator, replays the WAL, re-dispatches any
// unfinished batches from a previous life, and starts the worker
// health loop.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("coordinator: no workers configured")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if cfg.SpillHighWater <= 0 || cfg.SpillHighWater > 1 {
		cfg.SpillHighWater = 0.75
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.WorkerWait <= 0 {
		cfg.WorkerWait = 5 * time.Second
	}
	if cfg.WAL == nil {
		cfg.WAL = wal.Nop()
	}
	// The coordinator validates chips and re-assembles journaled work
	// against its own stack; a throwaway simulator resolves Machine to
	// the chip name it implies.
	sim, err := eqasm.NewSimulator(cfg.Machine...)
	if err != nil {
		return nil, fmt.Errorf("coordinator: machine config: %w", err)
	}
	c := &Coordinator{
		cfg:        cfg,
		chip:       sim.Chip(),
		cache:      service.NewProgramCache(cfg.CacheSize),
		log:        cfg.WAL,
		jobs:       make(map[string]*pending),
		stopHealth: make(chan struct{}),
	}
	for _, u := range cfg.Workers {
		u = strings.TrimRight(u, "/")
		// Defaults first so caller options override: a short dial
		// retry smooths worker restarts without hiding real outages.
		copts := append([]eqasm.ClientOption{eqasm.WithRetry(2, 25*time.Millisecond)}, cfg.Client...)
		c.workers = append(c.workers, &worker{url: u, client: eqasm.NewClient(u, copts...)})
	}
	recovered, err := c.replayWAL()
	if err != nil {
		return nil, err
	}
	// One synchronous probe round so routing has health data from the
	// first Submit.
	c.probeAll()
	c.healthWG.Add(1)
	go c.healthLoop()
	for _, rb := range recovered {
		if err := c.recover(rb); err != nil {
			return nil, err
		}
	}
	// Drop completed batches journaled by the previous life.
	if err := c.Checkpoint(); err != nil {
		return nil, fmt.Errorf("coordinator: wal checkpoint: %w", err)
	}
	return c, nil
}

// Chip returns the topology name the pool simulates.
func (c *Coordinator) Chip() string { return c.chip }

// Submit implements eqasm.Backend: it validates and journals the
// batch, then drives it to completion across the worker pool. The
// returned Job behaves exactly like a Simulator or Client job.
// RunOptions.Workers is ignored (each worker owns its own fan-out);
// per-request results are bit-identical to a lone Simulator at the
// same explicit seed regardless of placement or re-queues.
func (c *Coordinator) Submit(ctx context.Context, reqs ...eqasm.RunRequest) (*eqasm.Job, error) {
	return c.submit(ctx, reqs, false)
}

func (c *Coordinator) submit(ctx context.Context, reqs []eqasm.RunRequest, streaming bool) (*eqasm.Job, error) {
	for i, r := range reqs {
		if r.Program == nil {
			break // NewControlledJob reports the canonical error
		}
		if r.Options.Shots < 0 {
			return nil, fmt.Errorf("coordinator: request %d: negative shot count %d", i, r.Options.Shots)
		}
		if r.Options.Seed < 0 {
			return nil, fmt.Errorf("coordinator: request %d: negative seed %d", i, r.Options.Seed)
		}
		if chip := r.Program.Chip(); chip != c.chip {
			return nil, fmt.Errorf("coordinator: request %d: program chip %q does not match pool chip %q", i, chip, c.chip)
		}
	}
	id := fmt.Sprintf("coord-%06d", c.seq.Add(1))
	p, err := c.newPending(id, ctx, reqs)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(acceptedRecord{Chip: c.chip, Requests: p.items})
	if err != nil {
		p.release()
		return nil, fmt.Errorf("coordinator: journal batch: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		p.release()
		return nil, service.ErrClosed
	}
	// The accepted record must be durable before the caller holds a
	// handle: a batch the caller saw admitted survives a crash.
	if err := c.walAppend(p, wal.Entry{Kind: wal.KindAccepted, Batch: id, Index: -1, Data: data}); err != nil {
		c.mu.Unlock()
		p.release()
		return nil, fmt.Errorf("coordinator: journal batch: %w", err)
	}
	c.jobs[id] = p
	c.liveJobs++
	c.mu.Unlock()
	c.metrics.jobsSubmitted.Add(1)
	c.metrics.requestsSubmitted.Add(int64(len(reqs)))
	if streaming {
		// Attach before the driver starts so histogram replays are
		// never skipped by a stream raced on after completion.
		p.job.Stream()
	}
	outstanding := make([]int, len(reqs))
	for i := range outstanding {
		outstanding[i] = i
	}
	c.wg.Add(1)
	go c.drive(p, outstanding)
	return p.job, nil
}

// Run implements eqasm.Backend: one request through Submit, awaited.
func (c *Coordinator) Run(ctx context.Context, p *eqasm.Program, opts eqasm.RunOptions) (*eqasm.Result, error) {
	job, err := c.Submit(ctx, eqasm.RunRequest{Program: p, Options: opts})
	if err != nil {
		return nil, err
	}
	<-job.Done()
	results, err := job.Results()
	var res *eqasm.Result
	if len(results) > 0 {
		res = results[0]
	}
	return res, err
}

// RunStream implements eqasm.Backend. Like the Client's stream, shots
// arrive as a per-request histogram replay once the request completes
// on its worker; a failure delivers one final ShotResult with Err set.
func (c *Coordinator) RunStream(ctx context.Context, p *eqasm.Program, opts eqasm.RunOptions) (<-chan eqasm.ShotResult, error) {
	if opts.Shots < 0 {
		return nil, fmt.Errorf("coordinator: negative shot count %d", opts.Shots)
	}
	if p == nil {
		return nil, fmt.Errorf("eqasm: request 0 has no program")
	}
	ch := make(chan eqasm.ShotResult)
	go func() {
		defer close(ch)
		job, err := c.submit(ctx, []eqasm.RunRequest{{Program: p, Options: opts}}, true)
		if err != nil {
			sendWithGrace(ch, eqasm.ShotResult{Shot: -1, Err: err})
			return
		}
		for sr := range job.Stream() {
			select {
			case ch <- sr:
			case <-ctx.Done():
				job.Cancel()
				sendWithGrace(ch, eqasm.ShotResult{Shot: -1, Err: context.Cause(ctx)})
				return
			}
		}
	}()
	return ch, nil
}

// sendWithGrace delivers a terminal stream message, waiting briefly
// for a consumer that is not at the channel yet.
func sendWithGrace(ch chan<- eqasm.ShotResult, sr eqasm.ShotResult) {
	select {
	case ch <- sr:
	case <-time.After(time.Second):
	}
}

// Job returns a submitted job by ID, including recently finished ones
// (bounded by Config.RetainJobs).
func (c *Coordinator) Job(id string) (*eqasm.Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.jobs[id]
	if !ok {
		return nil, false
	}
	return p.job, true
}

// Resolve turns a wire request into a run request bound to a program
// — assembling eQASM or compiling cQASM/OpenQASM circuit text against
// the coordinator's stack — through the coordinator's own content-hash
// cache. It is the one conversion from the wire shape: the HTTP tier's
// submissions and WAL recovery both call it. The cache key is the same
// hash the workers use, so a cached resolve here predicts a warm
// worker downstream.
func (c *Coordinator) Resolve(item wire.Request) (eqasm.RunRequest, error) {
	if item.Circuit != nil {
		return eqasm.RunRequest{}, errors.New("coordinator: circuit requests are not accepted at the routing tier; submit source text")
	}
	if item.Chip != "" && item.Chip != c.chip {
		return eqasm.RunRequest{}, fmt.Errorf("coordinator: program chip %q does not match pool chip %q", item.Chip, c.chip)
	}
	key, err := service.RequestSpec{Source: item.Source, Format: item.Format}.CacheKey()
	if err != nil {
		return eqasm.RunRequest{}, err
	}
	prog, ok := c.cache.Get(key)
	if !ok {
		switch item.Format {
		case service.FormatCQASM:
			prog, err = eqasm.CompileCircuit(item.Source, c.cfg.Machine...)
		case service.FormatOpenQASM:
			prog, err = eqasm.CompileOpenQASM(item.Source, c.cfg.Machine...)
		case "", service.FormatEQASM:
			prog, err = eqasm.Assemble(item.Source, c.cfg.Machine...)
		default:
			err = fmt.Errorf("coordinator: unknown format %q", item.Format)
		}
		if err != nil {
			return eqasm.RunRequest{}, err
		}
		c.cache.Put(key, prog)
	}
	return eqasm.RunRequest{
		Program: prog,
		Options: eqasm.RunOptions{Shots: item.Shots, Seed: item.Seed, Backend: item.Backend, Fusion: item.Fusion},
		Params:  item.Params,
		Tag:     item.Tag,
	}, nil
}

// Draining reports whether the coordinator has stopped accepting work.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Close stops the coordinator crash-equivalently: in-flight batches
// are cancelled on their workers and abandoned without a completion
// record, so a coordinator reopened over the same WAL re-admits and
// re-runs them (their handles from this life never finalize). The
// worker pool itself keeps serving.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ps := make([]*pending, 0, len(c.jobs))
	for _, p := range c.jobs {
		ps = append(ps, p)
	}
	c.mu.Unlock()
	close(c.stopHealth)
	for _, p := range ps {
		p.cancel(errClosing)
	}
	c.wg.Wait()
	c.healthWG.Wait()
	return c.log.Close()
}

// Checkpoint rewrites the WAL down to the records of batches that have
// not finished, bounding replay work and file growth. A result record
// appended concurrently with the rewrite can be lost; that is benign —
// recovery simply re-runs that request, deterministically.
func (c *Coordinator) Checkpoint() error {
	c.mu.Lock()
	var keep []wal.Entry
	for _, p := range c.jobs {
		if p.done.Load() {
			continue
		}
		p.walMu.Lock()
		keep = append(keep, p.walEntries...)
		p.walMu.Unlock()
	}
	c.mu.Unlock()
	return c.log.Checkpoint(keep)
}

// Stats is a point-in-time snapshot of routing, durability and
// per-worker counters.
type Stats struct {
	// Workers is the configured pool size; WorkersHealthy how many
	// passed their last probe.
	Workers        int `json:"workers"`
	WorkersHealthy int `json:"workers_healthy"`
	// WorkerPool carries per-worker health and load.
	WorkerPool []WorkerStats `json:"worker_pool"`

	JobsSubmitted     int64 `json:"jobs_submitted"`
	JobsActive        int64 `json:"jobs_active"`
	JobsCompleted     int64 `json:"jobs_completed"`
	JobsFailed        int64 `json:"jobs_failed"`
	JobsCancelled     int64 `json:"jobs_cancelled"`
	RequestsSubmitted int64 `json:"requests_submitted"`

	// Dispatches counts sub-batches sent to workers; Spills routing
	// decisions that yielded affinity to load; Requeues requests
	// re-routed after a worker failure.
	Dispatches int64 `json:"dispatches"`
	Spills     int64 `json:"spills"`
	Requeues   int64 `json:"requeues"`

	// RecoveredBatches counts batches re-admitted from the WAL at
	// startup; WALRecords/WALErrors journal appends and append
	// failures over this coordinator's life.
	RecoveredBatches int64 `json:"recovered_batches"`
	WALRecords       int64 `json:"wal_records"`
	WALErrors        int64 `json:"wal_errors,omitempty"`

	// Cache counters cover the coordinator's own resolved-program
	// cache (wire submissions), not the workers'.
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
}

// WorkerStats is one worker's health and last-probed load.
type WorkerStats struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	// Inflight is the coordinator's own count of requests currently
	// dispatched to this worker.
	Inflight int64 `json:"inflight"`
	// The remaining fields mirror the worker's last /v1/stats probe.
	QueueDepth      int   `json:"queue_depth"`
	QueueCapacity   int   `json:"queue_capacity"`
	InflightShots   int64 `json:"inflight_shots"`
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	ShotsExecuted   int64 `json:"shots_executed"`
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Workers:           len(c.workers),
		JobsSubmitted:     c.metrics.jobsSubmitted.Load(),
		JobsCompleted:     c.metrics.jobsCompleted.Load(),
		JobsFailed:        c.metrics.jobsFailed.Load(),
		JobsCancelled:     c.metrics.jobsCancelled.Load(),
		RequestsSubmitted: c.metrics.requestsSubmitted.Load(),
		Dispatches:        c.metrics.dispatches.Load(),
		Spills:            c.metrics.spills.Load(),
		Requeues:          c.metrics.requeues.Load(),
		RecoveredBatches:  c.metrics.recovered.Load(),
		WALRecords:        c.metrics.walRecords.Load(),
		WALErrors:         c.metrics.walErrors.Load(),
	}
	for _, w := range c.workers {
		w.statsMu.Lock()
		ws, ok := w.stats, w.statsOK
		w.statsMu.Unlock()
		wst := WorkerStats{
			URL:      w.url,
			Healthy:  w.healthy.Load(),
			Draining: w.draining.Load(),
			Inflight: w.inflight.Load(),
		}
		if ok {
			wst.QueueDepth = ws.QueueDepth
			wst.QueueCapacity = ws.QueueCapacity
			wst.InflightShots = ws.InflightShots
			wst.PlanCacheHits = ws.PlanCacheHits
			wst.PlanCacheMisses = ws.PlanCacheMisses
			wst.ShotsExecuted = ws.ShotsExecuted
		}
		if wst.Healthy {
			st.WorkersHealthy++
		}
		st.WorkerPool = append(st.WorkerPool, wst)
	}
	c.mu.Lock()
	st.JobsActive = int64(c.liveJobs)
	c.mu.Unlock()
	st.CacheHits, st.CacheMisses, st.CacheEntries = c.cache.Stats()
	return st
}

// StatsPayload satisfies the HTTP tier's introspection contract
// (httpapi.BatchBackend); it is Stats behind an any.
func (c *Coordinator) StatsPayload() any { return c.Stats() }
