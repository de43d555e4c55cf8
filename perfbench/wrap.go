package main

import (
	"sync"
	"time"

	"repro/internal/npu"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// busy accumulates the time spent in, and the work done by, calls into one
// layer. It is safe for concurrent use.
type busy struct {
	mu    sync.Mutex
	d     time.Duration
	calls int
	rows  int
}

func (b *busy) add(d time.Duration, rows int) {
	b.mu.Lock()
	b.d += d
	b.calls++
	b.rows += rows
	b.mu.Unlock()
}

// merge adds o's totals to b.
func (b *busy) merge(o *busy) {
	d, calls, rows := o.snapshot()
	b.mu.Lock()
	b.d += d
	b.calls += calls
	b.rows += rows
	b.mu.Unlock()
}

func (b *busy) snapshot() (time.Duration, int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.d, b.calls, b.rows
}

// timingBackend is an npu.Backend that times every Infer call of the
// backend it wraps. Latency is forwarded unchanged, so a manager charging
// modelled device time behaves exactly as over the bare backend.
type timingBackend struct {
	inner npu.Backend
	b     *busy
	// onBatch, when set, receives each call's start, end and rows.
	onBatch func(start, end time.Time, rows [][]float64)
}

func (t *timingBackend) Name() string { return t.inner.Name() }

func (t *timingBackend) Latency(n int) time.Duration { return t.inner.Latency(n) }

func (t *timingBackend) Infer(batch [][]float64) [][]float64 {
	start := time.Now()
	out := t.inner.Infer(batch)
	end := time.Now()
	t.b.add(end.Sub(start), len(batch))
	if t.onBatch != nil {
		t.onBatch(start, end, batch)
	}
	return out
}

// timingManager is a sim.Manager that times every Tick of the manager it
// wraps. One engine drives it from one goroutine, so it needs no lock.
type timingManager struct {
	inner sim.Manager
	d     time.Duration
}

func (t *timingManager) Name() string        { return t.inner.Name() }
func (t *timingManager) Attach(env *sim.Env) { t.inner.Attach(env) }

func (t *timingManager) Tick(now float64) {
	start := time.Now()
	t.inner.Tick(now)
	t.d += time.Since(start)
}

// timingPlacer adds the sim.Placer extension for managers that have it, so
// the engine's placement path is the same as over the bare manager.
type timingPlacer struct {
	timingManager
	placer sim.Placer
}

func (t *timingPlacer) Place(j workload.Job) platform.CoreID {
	start := time.Now()
	c := t.placer.Place(j)
	t.d += time.Since(start)
	return c
}

// wrapManager returns a timing wrapper with the same optional interfaces
// as m, and the wrapper's accumulator.
func wrapManager(m sim.Manager) (sim.Manager, *timingManager) {
	if p, ok := m.(sim.Placer); ok {
		w := &timingPlacer{timingManager: timingManager{inner: m}, placer: p}
		return w, &w.timingManager
	}
	w := &timingManager{inner: m}
	return w, w
}
