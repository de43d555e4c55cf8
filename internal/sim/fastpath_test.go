package sim

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

// scanLeastLoaded is the old scan-based placement reference: the core with
// the fewest members in the per-core lists, lowest ID on ties.
func scanLeastLoaded(e *Engine) platform.CoreID {
	best, bestN := platform.CoreID(0), len(e.byCore[0])+1
	for c := range e.byCore {
		if n := len(e.byCore[c]); n < bestN {
			best, bestN = platform.CoreID(c), n
		}
	}
	return best
}

// scanDone is the scan-based Done reference: every job has arrived and
// every arrived app has finished.
func scanDone(e *Engine) bool {
	if e.pendHead < len(e.pending) {
		return false
	}
	for _, a := range e.apps {
		if !a.done {
			return false
		}
	}
	return true
}

// TestPlacementMatchesScanReference drives a chaotic workload (random
// migrations, completions, arrivals) and checks after every tick that the
// incrementally maintained per-core counts agree with the membership lists,
// that leastLoadedCore picks exactly the core the scan-based reference
// would, and that Done's live-application count agrees with a scan.
func TestPlacementMatchesScanReference(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	cfg.Seed = 11
	e := New(cfg)
	e.AddJobs(chaosJobs(11, 24, 2e9, 8e9))
	m := &chaosManager{rng: rand.New(rand.NewSource(7))}

	ticks := 0
	e.RunUntil(m, 20, func() bool {
		ticks++
		for c := range e.byCore {
			if e.liveCnt[c] != len(e.byCore[c]) {
				t.Fatalf("tick %d core %d: liveCnt %d != len(byCore) %d",
					ticks, c, e.liveCnt[c], len(e.byCore[c]))
			}
			for _, id := range e.byCore[c] {
				a := e.apps[id]
				if a.done {
					t.Fatalf("tick %d core %d: done app %d still listed", ticks, c, id)
				}
				if a.stallUntil > e.maxStall[c] {
					t.Fatalf("tick %d core %d: stall deadline %v above watermark %v",
						ticks, c, a.stallUntil, e.maxStall[c])
				}
			}
		}
		if got, want := e.leastLoadedCore(), scanLeastLoaded(e); got != want {
			t.Fatalf("tick %d: leastLoadedCore = %d, scan reference = %d", ticks, got, want)
		}
		if got, want := e.Done(), scanDone(e); got != want {
			t.Fatalf("tick %d: Done = %v, scan reference = %v", ticks, got, want)
		}
		return false
	})
	if ticks == 0 {
		t.Fatal("simulation made no progress")
	}
}

// TestRunnableCountMatchesScan replays the scan the old integrate pass did
// (membership filtered by done/stall) against the powerCnt value execute
// hands over, across a workload with migrations and stalls in flight.
func TestRunnableCountMatchesScan(t *testing.T) {
	cfg := DefaultConfig(false, 25) // passive cooling: DTM cap changes too
	cfg.Seed = 3
	e := New(cfg)
	e.AddJobs(chaosJobs(3, 16, 1e9, 6e9))
	m := &chaosManager{rng: rand.New(rand.NewSource(5))}

	e.RunUntil(m, 15, func() bool {
		// After a step, e.tick has advanced past the tick that produced
		// powerCnt; rebuild that tick's stall cutoff with the exact
		// arithmetic execute used (float64(tick)·Dt + Dt).
		tickStart := float64(e.tick-1) * e.cfg.Dt
		tickEnd := tickStart + e.cfg.Dt
		for c := range e.byCore {
			n := 0
			for _, id := range e.byCore[c] {
				a := e.apps[id]
				if !a.done && a.stallUntil < tickEnd {
					n++
				}
			}
			if e.powerCnt[c] != n {
				t.Fatalf("t=%v core %d: powerCnt %d, scan %d", tickStart, c, e.powerCnt[c], n)
			}
		}
		return false
	})
}

// TestEngineTickDoesNotAllocate pins the alloc-free steady-state tick: with
// arrivals drained and telemetry off, stepping the engine must not touch
// the heap (the old path allocated a per-core membership snapshot plus a
// runnable list every tick).
func TestEngineTickDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	e := New(cfg)
	pool := workload.MixedPool()
	for i := 0; i < 12; i++ {
		spec, _ := workload.ByName(pool[i%len(pool)])
		spec.TotalInstr = 1e13 // never completes within the test
		e.AddJob(workload.Job{Spec: spec, QoS: 1e9, Arrival: 0})
	}
	e.Run(nil, 1.0) // arrivals, cache warm-up, thermal propagator build

	allocs := testing.AllocsPerRun(200, func() { e.step(nil) })
	if allocs != 0 {
		t.Fatalf("engine tick allocates %.1f times per step, want 0", allocs)
	}
}
