package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds a traced run's in-memory span buffer (~40 bytes per
// span). A traced phase stops issuing work once the buffer is full, so
// a fast workload records a shorter phase instead of growing memory.
const maxSpans = 1 << 18

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch; req identifies the request the
// call served (row and shot, point index or request tag, encoded per
// workload); parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer keeps spans in memory for the whole traced phase; they are
// written out once, at the end (write).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1024)}
}

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// full reports whether the span buffer is exhausted.
func (t *tracer) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= maxSpans
}

// add records a finished span and returns its index (-1 once the buffer
// is full, so children of a dropped span become roots).
func (t *tracer) add(name string, start, end int64, parent int32, req int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// open starts a span whose end is filled in by close; used for parents,
// which must exist before their children name them.
func (t *tracer) open(name string, parent int32, req int64) int32 {
	start := t.now()
	return t.add(name, start, start, parent, req)
}

func (t *tracer) close(id int32) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStats sums durations and counts per span name.
type layerStats struct {
	total time.Duration
	count int
	durs  []float64 // ns, for medians
}

func (t *tracer) byName() map[string]*layerStats {
	out := map[string]*layerStats{}
	for _, s := range t.snapshot() {
		ls := out[s.name]
		if ls == nil {
			ls = &layerStats{}
			out[s.name] = ls
		}
		d := s.end - s.start
		ls.total += time.Duration(d)
		ls.count++
		ls.durs = append(ls.durs, float64(d))
	}
	return out
}

// perUnit returns the total time of the spans named name divided by
// units, in ns (0 when there is no such span or no unit).
func perUnit(layers map[string]*layerStats, name string, units float64) float64 {
	ls := layers[name]
	if ls == nil || units <= 0 {
		return 0
	}
	return float64(ls.total) / units
}

// selfTime is a span's duration minus the part of its interval that the
// given children cover. Children may overlap each other (concurrent
// calls); their union counts once, clipped to the parent interval.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	var curA, curB int64 = 0, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.end - parent.start - covered
}

// write stores the spans as tab-separated text (name, start_ns, end_ns,
// parent, req) under dir, returning the file path.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".spans.tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\treq")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
