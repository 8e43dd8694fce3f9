package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

// opFunc runs request k of the workload for caller c and returns the
// work it completed (requests or gates), the time the
// system under test took, and any failure — an error from the program
// or an output that differs from the reference. Checks run outside the
// returned duration.
type opFunc func(c, k int) (work float64, took time.Duration, err error)

// phase is one measured stretch of closed-loop work.
type phase struct {
	callers    int
	done       []sample // successful requests, in completion order
	attempted  int64
	failed     int64
	firstErr   error
	allocBytes uint64
}

// sample is one successful request: its latency and the work it did.
type sample struct {
	ms   float64
	work float64
}

// latencies returns the request latencies, ms.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.done))
	for i, s := range p.done {
		out[i] = s.ms
	}
	return out
}

// throughput is work per second: the requests' work over their summed
// latencies, times the number of concurrent callers. The
// mean, not a median, on purpose: a shared host's neighbours make
// request latencies bimodal, and a median flips between the modes from
// run to run where the mean moves with their mix.
func (p *phase) throughput() float64 {
	var work, ms float64
	for _, s := range p.done {
		work, ms = work+s.work, ms+s.ms
	}
	if ms == 0 {
		return 0
	}
	return float64(p.callers) * work / (ms / 1e3)
}

// runPhase drives callers closed-loop callers for d (or until stop
// reports true): each caller issues its next request only after the
// previous one returned. Caller c issues requests c, c+callers, ...
func runPhase(callers int, d time.Duration, stop func() bool, op opFunc) *phase {
	var mu sync.Mutex
	p := &phase{callers: callers}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Now().Before(deadline) && (stop == nil || !stop()); k += callers {
				work, took, err := op(c, k)
				ms := float64(took) / float64(time.Millisecond)
				mu.Lock()
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("request %d: %w", k, err)
					}
				} else {
					p.done = append(p.done, sample{ms: ms, work: work})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	return p
}

// measure runs the untraced phase and, for a traced run, the traced
// phase after it, splitting the run time between them. The traced
// request function is made after the untraced phase, which it is
// given; the traced phase stops early when the tracer's span buffer
// fills.
func measure(rc runConfig, callers int, plain opFunc, traced func(t *tracer, main *phase) opFunc) (main, tr *phase, t *tracer) {
	d := time.Duration(rc.seconds * float64(time.Second))
	if !rc.trace {
		return runPhase(callers, d, nil, plain), nil, nil
	}
	main = runPhase(callers, d/2, nil, plain)
	t = newTracer()
	tr = runPhase(callers, d/2, t.full, traced(t, main))
	return main, tr, t
}

// repeatSetup builds the system under test n times, releasing all but
// the last build, and returns that one with the median build time in
// seconds: set-up work a change moves out of the measured loop shows up
// here. Each build starts after a collection, so garbage of the
// previous build is not collected on the next one's clock.
func repeatSetup[T any](n int, build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			if i > 0 {
				release(last)
			}
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			release(last)
		}
		last = v
	}
	return last, median(times), nil
}

// outcome is what a workload hands back to the report.
type outcome struct {
	setupS float64
	main   *phase
	traced *phase
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}
