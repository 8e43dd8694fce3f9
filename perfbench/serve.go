package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eqasm"
	"eqasm/internal/coordinator"
	"eqasm/internal/httpapi"
	"eqasm/internal/service"
	"eqasm/internal/wal"
)

// Serve request mix. No measured traffic fixes the shares, so they
// are a synthetic choice: two thirds are Runs of smoke fixtures, which
// hit every cache (the bulk of the traffic, and enough that the median
// latency falls inside one kind's requests rather than on the boundary
// between two kinds, where it would flip from run to run); the other
// third splits equally among the three kinds that miss a cache or poll
// — a fresh cQASM circuit, a fresh OpenQASM circuit and a 32-point
// rz_sweep batch through Submit + Wait.
const (
	shareSmoke = 6.0 / 9
	shareCQ    = 1.0 / 9
	shareOQ    = 1.0 / 9
	// the rest: the sweep batches
	sweepBatchPoints = 32
	serveShots       = 32 // one service shot batch
	smokeShots       = 64 // two service shot batches
	// serveMaxRate bounds the requests per second the two callers can
	// make: every request waits for at least one 25 ms worker poll. A
	// run precomputes the references of that many requests per second
	// before measurement starts; any later request computes its own
	// after it returns.
	serveMaxRate = 80
	// serveReplayed is how many traced requests a traced run replays one
	// layer below the workers.
	serveReplayed = 300
)

var (
	serveWorkload = &workload{
		name:       "serve",
		why:        "closed loop, 2 callers: eqasm.Client over loopback to a coordinator (fsync WAL) and 2 workers; synthetic mix: 2/3 cached Runs, 1/9 each fresh cQASM, fresh OpenQASM, sweep",
		callers:    2,
		unit:       "requests",
		reportName: "requests_per_s",
		latName:    "rt",
		run:        func(rc runConfig) (*outcome, error) { return runServe(rc, "serve", serveMix) },
	}
	freshWorkload = &workload{
		name:       "fresh",
		why:        "closed loop, 2 callers, same tier as serve: only fresh cQASM and OpenQASM circuits, so every cache misses and every tier compiles and plans",
		callers:    2,
		unit:       "requests",
		reportName: "fresh.requests_per_s",
		latName:    "fresh.rt",
		run:        func(rc runConfig) (*outcome, error) { return runServe(rc, "fresh", freshMix) },
	}
)

type opKind int

const (
	kindSmoke opKind = iota
	kindCQ
	kindOQ
	kindSweep
)

// serveOp is one caller request: source text in hand (one program per
// run request) and the run seed of each.
type serveOp struct {
	kind  opKind
	name  string // smoke fixture, "fresh" or "rz_sweep"
	srcs  []string
	seeds []int64
	shots int
}

// mixBlock is the number of consecutive requests that hold the mix's
// shares exactly, so the mix of a run does not vary with the seed.
const mixBlock = 9

// serveMix generates request k of the seeded mix: its kind from a
// seeded shuffle of its block of mixBlock requests, its content from
// (seed, k) alone, so the sequence is unbounded and fresh circuits
// never repeat.
func serveMix(seed int64, k int) serveOp {
	block := stream(seed, -2-k/mixBlock)
	pos := make([]int, mixBlock)
	for i := range pos {
		pos[i] = i
	}
	for i := mixBlock - 1; i > 0; i-- {
		j := block.intn(i + 1)
		pos[i], pos[j] = pos[j], pos[i]
	}
	u := (float64(pos[k%mixBlock]) + 0.5) / mixBlock
	r := stream(seed, k)
	switch {
	case u < shareSmoke:
		smoke := service.SmokePrograms()
		names := sortedKeys(smoke)
		name := names[r.intn(len(names))]
		return serveOp{kind: kindSmoke, name: name, srcs: []string{smoke[name]}, seeds: []int64{r.seed()}, shots: smokeShots}
	case u < shareSmoke+shareCQ:
		return serveOp{kind: kindCQ, name: "fresh", srcs: []string{freshCircuit(r, k, false)}, seeds: []int64{r.seed()}, shots: serveShots}
	case u < shareSmoke+shareCQ+shareOQ:
		return serveOp{kind: kindOQ, name: "fresh", srcs: []string{freshCircuit(r, k, true)}, seeds: []int64{r.seed()}, shots: serveShots}
	}
	// A sweep batch: the run's theta grid, fresh seeds. The routing tier
	// drops RunRequest params on the wire (internal/httpapi
	// BackendServer), so a parametric batch through the coordinator fails
	// with a missing-parameter error; each point goes out as rz_sweep with
	// its angle baked in, which takes the same Submit + poll path and,
	// like a parametric sweep, hits the program caches after the first
	// batch.
	grid := stream(seed, -1)
	op := serveOp{kind: kindSweep, name: "rz_sweep", shots: serveShots}
	for i := 0; i < sweepBatchPoints; i++ {
		theta := strconv.FormatFloat(2*math.Pi*grid.float(), 'g', -1, 64)
		op.srcs = append(op.srcs, strings.ReplaceAll(rzSweepSource, "%theta", theta))
		op.seeds = append(op.seeds, r.seed())
	}
	return op
}

// freshMix generates request k of the fresh workload: a fresh circuit
// from (seed, k) alone, cQASM and OpenQASM in turn.
func freshMix(seed int64, k int) serveOp {
	r := stream(seed, k)
	if k%2 == 1 {
		return serveOp{kind: kindOQ, name: "fresh", srcs: []string{freshCircuit(r, k, true)}, seeds: []int64{r.seed()}, shots: serveShots}
	}
	return serveOp{kind: kindCQ, name: "fresh", srcs: []string{freshCircuit(r, k, false)}, seeds: []int64{r.seed()}, shots: serveShots}
}

// rzSweepSource is the parametric ansatz of testdata/circuits/rz_sweep.cq.
const rzSweepSource = `version 1.0
qubits 3
rx q[0], %theta
rz q[2], %theta
cnot q[0], q[2]
measure q[0]
measure q[2]
`

// freshTagDigits is the number of base-4 digits of the request index
// a fresh circuit opens with; it covers every request a run makes.
const freshTagDigits = 8

// freshCircuit generates a random circuit on the two-qubit chip's
// (0, 2) pair. It opens with request k's index spelled in
// freshTagDigits base-4 digits as x/y/z/h gates on q[0], so it is
// unique in the run and misses every program cache, and it uses only
// gates with a 32-bit encoding.
func freshCircuit(r *rng, k int, openQASM bool) string {
	one := []string{"h", "x", "y", "z", "s", "t"}
	cnot, end := "cnot", "\n"
	var b strings.Builder
	if openQASM {
		cnot, end = "cx", ";\n"
		b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[2];\n")
	} else {
		b.WriteString("version 1.0\nqubits 3\n")
	}
	for n, d := k, 0; d < freshTagDigits; n, d = n/4, d+1 {
		fmt.Fprintf(&b, "%s q[0]%s", []string{"x", "y", "z", "h"}[n%4], end)
	}
	for n := 4 + r.intn(9); n > 0; n-- {
		if r.intn(4) == 0 {
			b.WriteString(cnot + " q[0], q[2]" + end)
			continue
		}
		fmt.Fprintf(&b, "%s q[%d]%s", one[r.intn(len(one))], 2*r.intn(2), end)
	}
	if openQASM {
		b.WriteString("measure q[0] -> c[0];\nmeasure q[2] -> c[1];\n")
	} else {
		b.WriteString("measure q[0]\nmeasure q[2]\n")
	}
	return b.String()
}

// compile turns the request's source text into programs, as the caller
// does before sending them.
func (op serveOp) compile() ([]*eqasm.Program, error) {
	progs := make([]*eqasm.Program, len(op.srcs))
	for i, src := range op.srcs {
		var err error
		switch op.kind {
		case kindSmoke:
			progs[i], err = eqasm.Assemble(src)
		case kindOQ:
			progs[i], err = eqasm.CompileOpenQASM(src)
		default:
			progs[i], err = eqasm.CompileCircuit(src)
		}
		if err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// requests renders the op as run requests.
func (op serveOp) requests(progs []*eqasm.Program) []eqasm.RunRequest {
	reqs := make([]eqasm.RunRequest, len(progs))
	for i, p := range progs {
		reqs[i] = eqasm.RunRequest{Program: p, Options: eqasm.RunOptions{Shots: op.shots, Seed: op.seeds[i]}}
	}
	return reqs
}

// reference runs the op on a lone Simulator with Workers equal to the
// service's shot-batch split, so the per-batch seeds line up shot for
// shot.
func (op serveOp) reference(sim *eqasm.Simulator) ([]*eqasm.Result, error) {
	progs, err := op.compile()
	if err != nil {
		return nil, err
	}
	var out []*eqasm.Result
	for _, rq := range op.requests(progs) {
		opts := rq.Options
		opts.Workers = opts.Shots / serveShots
		res, err := sim.Run(context.Background(), rq.Program, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// serveStack is the system under test: two workers behind httpapi, a
// coordinator with a fsync'd file WAL behind httpapi.NewBackend, and
// one eqasm.Client, all on loopback.
type serveStack struct {
	dir     string
	svcs    []*service.Service
	servers []*http.Server
	coord   *coordinator.Coordinator
	client  *eqasm.Client
	// Wire taps around the coordinator and worker handlers and a tap
	// around the journal record only while tr is set.
	tr atomic.Pointer[tracer]
	// seedOp maps a run seed to the request index that carries it; the
	// seed travels on both wire hops, so it identifies a request on the
	// workers too.
	seedOp sync.Map
}

func startServe(workdir string) (*serveStack, error) {
	s := &serveStack{}
	if err := s.start(workdir); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveStack) start(workdir string) (err error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	if s.dir, err = os.MkdirTemp(workdir, "serve-"); err != nil {
		return err
	}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		s.servers = append(s.servers, srv)
		go srv.Serve(ln)
		return "http://" + ln.Addr().String(), nil
	}
	coordTap := &wireTap{stack: s, layer: "coord"}
	var urls []string
	for i := 0; i < 2; i++ {
		svc, err := service.New(service.Config{})
		if err != nil {
			return err
		}
		s.svcs = append(s.svcs, svc)
		u, err := listen(&wireTap{stack: s, layer: "worker", next: httpapi.New(svc).Handler()})
		if err != nil {
			return err
		}
		urls = append(urls, u)
	}
	fl, err := wal.Open(filepath.Join(s.dir, "coord.wal"))
	if err != nil {
		return err
	}
	journal := &walTap{Log: fl, stack: s}
	// eqasm-coord's defaults: twoqubit chip, default health, spill,
	// attempts, cache and wait; the journal is the fsync'd file log.
	s.coord, err = coordinator.New(coordinator.Config{
		Workers: urls,
		Machine: []eqasm.Option{eqasm.WithTopology("twoqubit")},
		WAL:     journal,
	})
	if err != nil {
		fl.Close()
		return err
	}
	coordTap.next = httpapi.NewBackend(s.coord).Handler()
	u, err := listen(coordTap)
	if err != nil {
		return err
	}
	s.client = eqasm.NewClient(u)
	warm, err := eqasm.Assemble(service.SmokePrograms()["bell"])
	if err != nil {
		return err
	}
	if _, err := s.client.Run(context.Background(), warm, eqasm.RunOptions{Shots: smokeShots, Seed: 1}); err != nil {
		return err
	}
	return nil
}

// close stops the servers, the coordinator (which closes its WAL) and
// the workers, and removes the scratch directory.
func (s *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx) // best effort: the process is done with it
	}
	if s.coord != nil {
		_ = s.coord.Close()
	}
	for _, svc := range s.svcs {
		_ = svc.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// do sends op k from source text to Result, as a caller would: compile
// (fresh circuits are compiled here, by the caller), then Run, or
// Submit + Wait for a sweep batch.
func (s *serveStack) do(k int, op serveOp, t *tracer) ([]*eqasm.Result, error) {
	for _, sd := range op.seeds {
		s.seedOp.Store(sd, k)
	}
	ctx := context.Background()
	var root int32 = -1
	var start int64
	if t != nil {
		root = t.open("request", -1, int64(k))
		defer t.close(root)
		start = t.now()
	}
	progs, err := op.compile()
	if t != nil && (op.kind == kindCQ || op.kind == kindOQ) {
		t.add("client.compile", start, t.now(), root, int64(k))
	}
	if err != nil {
		return nil, err
	}
	reqs := op.requests(progs)
	if op.kind != kindSweep {
		res, err := s.client.Run(ctx, reqs[0].Program, reqs[0].Options)
		return []*eqasm.Result{res}, err
	}
	job, err := s.client.Submit(ctx, reqs...)
	if err != nil {
		return nil, err
	}
	return job.Wait(ctx)
}

// serveCounters are the cumulative counters the per-layer metrics take
// deltas of.
type serveCounters struct {
	coord coordinator.Stats
	svc   service.Stats // summed over the workers
}

func (s *serveStack) counters() serveCounters {
	c := serveCounters{coord: s.coord.Stats()}
	for _, svc := range s.svcs {
		st := svc.Stats()
		c.svc.CacheHits += st.CacheHits
		c.svc.CacheMisses += st.CacheMisses
		c.svc.PlanCacheHits += st.PlanCacheHits
		c.svc.PlanCacheMisses += st.PlanCacheMisses
		c.svc.RunNs += st.RunNs
		c.svc.RequestsSubmitted += st.RequestsSubmitted
	}
	return c
}

// runServe runs a serving-tier workload whose request k is mix(seed, k);
// name labels its span files.
func runServe(rc runConfig, name string, mix func(seed int64, k int) serveOp) (*outcome, error) {
	workdir := filepath.Join(rc.workdir, "tmp")
	s, setupS, err := repeatSetup(3, func() (*serveStack, error) { return startServe(workdir) }, (*serveStack).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// References for the first requests, from a lone Simulator.
	lone, err := eqasm.NewSimulator()
	if err != nil {
		return nil, err
	}
	refs := make([][]*eqasm.Result, int(rc.seconds*serveMaxRate))
	for k := range refs {
		if refs[k], err = mix(rc.seed, k).reference(lone); err != nil {
			return nil, fmt.Errorf("reference %d: %w", k, err)
		}
	}
	reference := func(k int, op serveOp) ([]*eqasm.Result, error) {
		if k < len(refs) {
			return refs[k], nil
		}
		want, err := op.reference(lone)
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", op.name, err)
		}
		return want, nil
	}
	check := func(k int, op serveOp, got []*eqasm.Result) error {
		want, err := reference(k, op)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d results, reference %d", op.name, len(got), len(want))
		}
		for i := range got {
			if err := sameResult(got[i], want[i]); err != nil {
				return fmt.Errorf("%s request %d: %w", op.name, i, err)
			}
		}
		return nil
	}
	var mu sync.Mutex
	var tracedOK []int // traced requests that passed their check
	request := func(k int, t *tracer) (float64, time.Duration, error) {
		op := mix(rc.seed, k)
		start := time.Now()
		res, err := s.do(k, op, t)
		took := time.Since(start)
		if err == nil {
			err = check(k, op, res)
		}
		if err == nil && t != nil {
			mu.Lock()
			tracedOK = append(tracedOK, k)
			mu.Unlock()
		}
		return 1, took, err
	}
	plain := func(_, k int) (float64, time.Duration, error) { return request(k, nil) }
	var before serveCounters
	traced := func(t *tracer, main *phase) opFunc {
		// Continue the request sequence past the untraced phase, so
		// fresh circuits stay fresh.
		next := int(main.attempted) + 2
		before = s.counters()
		s.tr.Store(t)
		return func(_, k int) (float64, time.Duration, error) { return request(next+k, t) }
	}
	main, tp, t := measure(rc, 2, plain, traced)
	s.tr.Store(nil)
	o := &outcome{setupS: setupS, main: main, traced: tp}
	if !rc.trace {
		return o, nil
	}
	o.layers = serveLayers(t, before, s.counters(), tp)
	if w := main.attempted; w > 0 {
		o.layers["alloc_bytes_per_request"] = float64(main.allocBytes) / float64(w)
	}
	// The execution layers: replay traced requests one layer below the
	// workers, after the traced phase, with a tracer of their own.
	rt := newTracer()
	rp := newExecReplay(rt)
	sort.Ints(tracedOK)
	for _, k := range tracedOK[:min(len(tracedOK), serveReplayed)] {
		op := mix(rc.seed, k)
		want, err := reference(k, op)
		if err == nil {
			err = rp.run(k, op, want)
		}
		if err != nil {
			tp.failed++
			if tp.firstErr == nil {
				tp.firstErr = fmt.Errorf("replay of request %d: %w", k, err)
			}
		}
	}
	rp.layers(o.layers, o.layers["service.run_ms_per_request"]*1e3)
	for file, tr := range map[string]*tracer{name: t, name + ".replay": rt} {
		if _, err := tr.write(rc.workdir, file); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// serveLayers derives the wire, coordinator, WAL and worker metrics of
// the traced phase.
func serveLayers(t *tracer, before, after serveCounters, tp *phase) map[string]float64 {
	l := map[string]float64{}
	ops := float64(tp.attempted)
	if ops == 0 {
		return l
	}
	spans := t.snapshot()
	byName := t.byName()
	medianMs := func(name string) float64 {
		if ls := byName[name]; ls != nil {
			return median(ls.durs) / 1e6
		}
		return 0
	}
	count := func(name string) float64 {
		if ls := byName[name]; ls != nil {
			return float64(ls.count)
		}
		return 0
	}
	l["coord.http.post_ms"] = medianMs("coord.http.post")
	l["worker.http.post_ms"] = medianMs("worker.http.post")
	// Batch requests are the ones whose caller polls the coordinator.
	batches := map[int64]bool{}
	for _, sp := range spans {
		if sp.name == "coord.http.poll" {
			batches[sp.req] = true
		}
	}
	if len(batches) > 0 {
		l["coord.http.polls_per_batch"] = count("coord.http.poll") / float64(len(batches))
	}
	if n := count("coord.http.poll"); n > 0 {
		l["coord.http.useful_poll_share"] = count("coord.http.poll.useful") / n
	}
	if n := count("worker.http.post"); n > 0 {
		l["worker.http.polls_per_dispatch"] = count("worker.http.poll") / n
	}
	if n := count("worker.http.poll"); n > 0 {
		l["worker.http.useful_poll_share"] = count("worker.http.poll.useful") / n
	}
	// Coordinator self time per request: from its first to its last
	// wire span, minus what the same request's worker spans cover.
	type ivs struct{ coord, worker []span }
	perReq := map[int64]*ivs{}
	for _, sp := range spans {
		var isCoord bool
		switch sp.name {
		case "coord.http.post", "coord.http.poll":
			isCoord = true
		case "worker.http.post", "worker.http.poll":
		default:
			continue
		}
		v := perReq[sp.req]
		if v == nil {
			v = &ivs{}
			perReq[sp.req] = v
		}
		if isCoord {
			v.coord = append(v.coord, sp)
		} else {
			v.worker = append(v.worker, sp)
		}
	}
	var self []float64
	for _, v := range perReq {
		if len(v.coord) == 0 {
			continue
		}
		whole := span{start: v.coord[0].start, end: v.coord[0].end}
		for _, c := range v.coord[1:] {
			whole.start, whole.end = min(whole.start, c.start), max(whole.end, c.end)
		}
		self = append(self, float64(selfTime(whole, v.worker))/1e6)
	}
	l["coordinator.self_ms"] = median(self)
	dc := func(a, b int64) float64 { return float64(b - a) }
	l["coordinator.dispatches_per_request"] = dc(before.coord.Dispatches, after.coord.Dispatches) / ops
	l["coordinator.requeues"] = dc(before.coord.Requeues, after.coord.Requeues)
	share := func(h0, m0, h1, m1 int64) float64 {
		h, m := dc(h0, h1), dc(m0, m1)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	l["coordinator.cache_hit_share"] = share(before.coord.CacheHits, before.coord.CacheMisses,
		after.coord.CacheHits, after.coord.CacheMisses)
	l["service.cache_hit_share"] = share(before.svc.CacheHits, before.svc.CacheMisses,
		after.svc.CacheHits, after.svc.CacheMisses)
	l["service.plan_cache_hit_share"] = share(before.svc.PlanCacheHits, before.svc.PlanCacheMisses,
		after.svc.PlanCacheHits, after.svc.PlanCacheMisses)
	if n := dc(before.svc.RequestsSubmitted, after.svc.RequestsSubmitted); n > 0 {
		l["service.run_ms_per_request"] = dc(before.svc.RunNs, after.svc.RunNs) / n / 1e6
	}
	if ls := byName["wal.append"]; ls != nil {
		l["wal.append_us"] = median(ls.durs) / 1e3
		l["wal.appends_per_request"] = float64(ls.count) / ops
	}
	if ls := byName["client.compile"]; ls != nil {
		l["client.compile_us"] = median(ls.durs) / 1e3
	}
	return l
}

// wireTap wraps an HTTP handler of the serving tier. While a tracer is
// set it records a span per batch submission and per status poll,
// attributed to the benchmark request each carries (by run seed), and
// marks a poll useful when the batch's state changed since the last
// poll.
type wireTap struct {
	stack *serveStack
	layer string // "coord" or "worker"
	next  http.Handler

	mu       sync.Mutex
	batchOps map[string][]int64 // batch ID → requests it carries
	lastPoll map[string]string  // batch ID → last polled state
}

// batchWire is the part of the /v1/batches wire the tap reads.
type batchWire struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Requests []struct {
		Seed   int64  `json:"seed"`
		Status string `json:"status"`
	} `json:"requests"`
}

func (w *wireTap) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	t := w.stack.tr.Load()
	poll := r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/batches/")
	post := r.Method == http.MethodPost && r.URL.Path == "/v1/batches"
	if t == nil || !(poll || post) {
		w.next.ServeHTTP(rw, r)
		return
	}
	var ops []int64
	if post {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var in batchWire
		if json.Unmarshal(body, &in) == nil {
			seen := map[int64]bool{}
			for _, rq := range in.Requests {
				if k, ok := w.stack.seedOp.Load(rq.Seed); ok && !seen[int64(k.(int))] {
					seen[int64(k.(int))] = true
					ops = append(ops, int64(k.(int)))
				}
			}
		}
	}
	rec := &recorder{ResponseWriter: rw}
	start := t.now()
	w.next.ServeHTTP(rec, r)
	end := t.now()
	var out batchWire
	_ = json.Unmarshal(rec.body.Bytes(), &out) // a non-batch reply leaves out empty
	state := out.Status
	for _, rq := range out.Requests {
		state += "," + rq.Status
	}
	name := w.layer + ".http.post"
	useful := false
	w.mu.Lock()
	if w.batchOps == nil {
		w.batchOps, w.lastPoll = map[string][]int64{}, map[string]string{}
	}
	if post {
		w.batchOps[out.ID] = ops
		w.lastPoll[out.ID] = state
	} else {
		name = w.layer + ".http.poll"
		id := strings.TrimPrefix(r.URL.Path, "/v1/batches/")
		ops = w.batchOps[id]
		useful = state != w.lastPoll[id]
		w.lastPoll[id] = state
	}
	w.mu.Unlock()
	if len(ops) == 0 {
		ops = []int64{-1}
	}
	for _, k := range ops {
		t.add(name, start, end, -1, k)
		if useful {
			t.add(name+".useful", start, end, -1, k)
		}
	}
}

// recorder tees a handler's response body.
type recorder struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (r *recorder) Write(p []byte) (int, error) {
	r.body.Write(p)
	return r.ResponseWriter.Write(p)
}

// walTap times the coordinator's journal appends while tracing.
type walTap struct {
	wal.Log
	stack *serveStack
}

func (w *walTap) Append(e wal.Entry) error {
	t := w.stack.tr.Load()
	if t == nil {
		return w.Log.Append(e)
	}
	start := t.now()
	err := w.Log.Append(e)
	t.add("wal.append", start, t.now(), -1, -1)
	return err
}
