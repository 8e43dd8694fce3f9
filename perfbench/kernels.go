package main

import (
	"time"

	"eqasm/internal/quantum"
)

// specBackend is a chip backend with the kernel-specialised gate path
// planned execution uses (the state vector and the tableau have one).
type specBackend interface {
	quantum.Backend
	quantum.SpecBackend
}

// timedBackend wraps a chip backend and accumulates the time spent in
// its kernels. It forwards Reseed, so pooled-machine semantics are kept.
// A machine with a custom backend never fuses gates; see execReplay
// for where the wrapper stands in.
type timedBackend struct {
	inner specBackend
	ns    int64
	calls int64
}

// take returns and clears the accumulated kernel time and call count.
func (t *timedBackend) take() (ns, calls int64) {
	ns, calls = t.ns, t.calls
	t.ns, t.calls = 0, 0
	return ns, calls
}

func (t *timedBackend) since(start time.Time) {
	t.ns += int64(time.Since(start))
	t.calls++
}

func (t *timedBackend) NumQubits() int      { return t.inner.NumQubits() }
func (t *timedBackend) Reset()              { t.inner.Reset() }
func (t *timedBackend) Prob1(q int) float64 { return t.inner.Prob1(q) }

func (t *timedBackend) Reseed(seed int64) {
	t.inner.(interface{ Reseed(int64) }).Reseed(seed)
}

func (t *timedBackend) Apply1(u quantum.Matrix2, q int, durNs float64) {
	start := time.Now()
	t.inner.Apply1(u, q, durNs)
	t.since(start)
}

func (t *timedBackend) ApplyCZ(qa, qb int, durNs float64) {
	start := time.Now()
	t.inner.ApplyCZ(qa, qb, durNs)
	t.since(start)
}

func (t *timedBackend) Apply2(u quantum.Matrix4, qa, qb int, durNs float64) {
	start := time.Now()
	t.inner.Apply2(u, qa, qb, durNs)
	t.since(start)
}

func (t *timedBackend) Idle(q int, durNs float64) {
	start := time.Now()
	t.inner.Idle(q, durNs)
	t.since(start)
}

func (t *timedBackend) Measure(q int, durNs float64) int {
	start := time.Now()
	bit := t.inner.Measure(q, durNs)
	t.since(start)
	return bit
}

func (t *timedBackend) Apply1Spec(sp quantum.Gate1Spec, q int, durNs float64) {
	start := time.Now()
	t.inner.Apply1Spec(sp, q, durNs)
	t.since(start)
}

func (t *timedBackend) Apply2Spec(sp quantum.Gate2Spec, qa, qb int, durNs float64) {
	start := time.Now()
	t.inner.Apply2Spec(sp, qa, qb, durNs)
	t.since(start)
}
