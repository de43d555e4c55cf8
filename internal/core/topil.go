package core

import (
	"math"

	"repro/internal/features"
	"repro/internal/npu"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config holds the run-time parameters of TOP-IL.
type Config struct {
	// MigrationPeriod is the interval between migration decisions
	// (paper: 500 ms; the DVFS loop runs every manager tick, 50 ms).
	MigrationPeriod float64
	// Hysteresis is the minimum predicted rating improvement required to
	// execute a migration. The oracle's soft labels make thermally
	// near-equivalent mappings (e.g. two cores of the same cluster) score
	// within e^{-αΔT} of 1, and the regression carries noise of similar
	// magnitude across states, so acting on smaller improvements yields
	// no thermal benefit and only causes migration churn. At α=2, 0.2
	// corresponds to tolerating mappings within ≈0.1 °C of the optimum.
	Hysteresis float64

	// ChargeOverhead accounts the daemon's computation time on core 0
	// (the paper's single-threaded implementation), using the latency
	// model of the inference backend plus the constants below.
	ChargeOverhead bool
	// MigrationFixedSec is the non-inference part of one migration
	// invocation (reading /proc, feature assembly, decision).
	MigrationFixedSec float64
	// DVFSBaseSec and DVFSPerAppSec model the control loop's cost:
	// a fixed part plus a per-application perf-counter read.
	DVFSBaseSec   float64
	DVFSPerAppSec float64

	// DVFSJump switches the control loop to jump-to-target (ablation of
	// the paper's one-step design; see DVFSLoop.Jump).
	DVFSJump bool

	// SettleEpochs is the number of migration epochs skipped after an
	// executed migration. A migration onto an idle cluster leaves the
	// one-step DVFS loop ramping for up to ~0.4 s, so the next epoch's
	// windowed counters describe a transient the oracle traces never
	// contain; deciding on them causes cluster ping-pong. This extends
	// the paper's skip-after-migration rule (which it applies to the
	// DVFS loop) to the migration policy itself.
	SettleEpochs int

	// Observe, when set, receives every migration epoch that ran
	// inference — the visited states a DAgger-style online learner
	// records. Settle-skipped and empty epochs produce no observation.
	// The observation's slices are reused across epochs and are only
	// valid for the duration of the call: observers must copy what they
	// retain.
	Observe func(EpochObservation)
}

// EpochObservation is one migration epoch as seen by the policy: the
// feature rows it inferred on (one per running application as the AoI),
// the action (core) each row's ratings argmax to, and the context needed
// to reconstruct the state for an expert query later. All slices are
// owned by the manager and reused; see Config.Observe.
type EpochObservation struct {
	Now          float64       // simulation time (s)
	Apps         []sim.AppView // row k describes Apps[k] as the AoI
	Rows         [][]float64   // feature vectors handed to the backend
	Chosen       []int         // argmax core per row
	ClusterFreqs []float64     // current frequency per cluster (Hz)
}

// DefaultConfig returns the paper's parameters. Overhead constants are
// calibrated to the paper's Fig. 12: ≈4.3 ms per migration invocation
// (dominated by the NPU call) and ≈0.54 ms per DVFS invocation at high
// application counts.
func DefaultConfig() Config {
	return Config{
		MigrationPeriod:   0.5,
		Hysteresis:        0.2,
		ChargeOverhead:    true,
		MigrationFixedSec: 3.2e-3,
		DVFSBaseSec:       0.10e-3,
		DVFSPerAppSec:     0.027e-3,
		SettleEpochs:      1,
	}
}

// OverheadStats reports the daemon's accumulated cost, matching the
// quantities of the paper's overhead evaluation.
type OverheadStats struct {
	MigrationInvocations int
	MigrationSeconds     float64
	DVFSInvocations      int
	DVFSSeconds          float64
}

// TOPIL is the run-time manager. It implements sim.Manager and sim.Placer.
type TOPIL struct {
	backend npu.Backend
	cfg     Config

	env     *sim.Env
	dvfs    *DVFSLoop
	nextMig float64
	settle  int // migration epochs left to skip after a migration
	stats   OverheadStats

	// featBuf is the reused feature matrix for migrate: one row per
	// running app, refilled in place each epoch so the per-tick path does
	// not allocate (rows are only (re)made when the app count or platform
	// shape grows). snap/views/batch are the matching reused snapshot
	// capture and per-epoch feature aggregates; Place reuses views too.
	featBuf [][]float64
	snap    features.Snapshot
	views   []sim.AppView
	batch   features.Batch

	// obsChosen/obsFreqs are the reused EpochObservation buffers —
	// allocated only when Config.Observe is set.
	obsChosen []int
	obsFreqs  []float64
}

// New creates a TOP-IL manager using the given inference backend (an
// npu.NPU for the paper's configuration, or an npu.CPUBackend for the
// no-accelerator ablation). It panics on a nil backend or a non-positive
// migration period: both are configuration programming errors, not
// runtime conditions.
func New(backend npu.Backend, cfg Config) *TOPIL {
	if backend == nil {
		panic("core: nil inference backend")
	}
	if cfg.MigrationPeriod <= 0 {
		panic("core: non-positive migration period")
	}
	return &TOPIL{backend: backend, cfg: cfg}
}

// Name implements sim.Manager.
func (t *TOPIL) Name() string { return "TOP-IL" }

// Attach implements sim.Manager.
func (t *TOPIL) Attach(env *sim.Env) {
	t.env = env
	t.dvfs = NewDVFSLoop(env)
	t.dvfs.Jump = t.cfg.DVFSJump
	t.nextMig = 0
	t.settle = 0
}

// Stats returns the accumulated overhead accounting.
func (t *TOPIL) Stats() OverheadStats { return t.stats }

// Tick implements sim.Manager: the DVFS loop runs every tick (50 ms), the
// migration policy every MigrationPeriod (500 ms). On migration ticks the
// DVFS loop is skipped (and once more after), per the paper.
func (t *TOPIL) Tick(now float64) {
	if now >= t.nextMig-1e-9 {
		t.nextMig = now + t.cfg.MigrationPeriod
		t.migrate(now)
		return
	}
	n := t.dvfs.Step()
	t.stats.DVFSInvocations++
	cost := t.cfg.DVFSBaseSec + float64(n)*t.cfg.DVFSPerAppSec
	t.stats.DVFSSeconds += cost
	if t.cfg.ChargeOverhead {
		t.env.ChargeOverhead(cost)
	}
}

// Place implements sim.Placer with PlaceOnFreeCore.
func (t *TOPIL) Place(job workload.Job) platform.CoreID {
	var c platform.CoreID
	c, t.views = PlaceOnFreeCore(t.env, t.views)
	return c
}

// PlaceOnFreeCore is the arrival placement TOP-IL and TOP-RL share: a new
// application starts on the first fully free core, walking the big, mid
// and LITTLE clusters in that order, so demanding QoS targets are met at
// once; the next migration epoch moves it to its optimal core. With no
// core free it takes the first least-loaded core in the same order. The
// per-core counts come from env.AppsInto(views), and the grown buffer is
// returned: a caller that keeps it places without allocating.
func PlaceOnFreeCore(env *sim.Env, views []sim.AppView) (platform.CoreID, []sim.AppView) {
	views = env.AppsInto(views)
	plat := env.Platform()
	// The first least-loaded core is the first free one when any is free.
	best, bestLoad := platform.CoreID(0), len(views)+1
	for _, kind := range [...]platform.ClusterKind{platform.Big, platform.Mid, platform.Little} {
		cl, _ := plat.ClusterByKind(kind)
		if cl == nil {
			continue
		}
		for _, c := range cl.Cores {
			n := 0
			for i := range views {
				if views[i].Core == c {
					n++
				}
			}
			if n < bestLoad {
				best, bestLoad = c, n
			}
		}
	}
	return best, views
}

// migrate performs one migration epoch: parallel inference with every
// running application as the AoI, then the single best migration.
func (t *TOPIL) migrate(now float64) {
	t.views = features.FromEnvInto(&t.snap, t.env, t.views)
	s := &t.snap
	n := len(s.Apps)
	t.stats.MigrationInvocations++
	cost := t.cfg.MigrationFixedSec + t.backend.Latency(n).Seconds()
	t.stats.MigrationSeconds += cost
	if t.cfg.ChargeOverhead {
		t.env.ChargeOverhead(cost)
	}
	if n == 0 {
		return
	}
	if t.settle > 0 {
		// Counters still reflect the post-migration transient (cold
		// caches, DVFS ramp on the target cluster): observe only.
		t.settle--
		return
	}

	// One Reset shares the Eq. (1)/(2) aggregates (and the occupancy
	// counts reused below) across all n feature rows.
	t.batch.Reset(t.snap)
	dim := features.Dim(s.NumCores, len(s.Clusters))
	for len(t.featBuf) < n {
		t.featBuf = append(t.featBuf, nil)
	}
	rows := t.featBuf[:n]
	for i := range rows {
		if len(rows[i]) != dim {
			rows[i] = make([]float64, dim)
		}
		t.batch.VectorInto(rows[i], i)
	}
	ratings := t.backend.Infer(rows)

	if t.cfg.Observe != nil {
		if cap(t.obsChosen) < n {
			t.obsChosen = make([]int, n)
		}
		t.obsChosen = t.obsChosen[:n]
		for k := range rows {
			best, bestR := 0, math.Inf(-1)
			for c := 0; c < s.NumCores; c++ {
				if r := ratings[k][c]; r > bestR {
					best, bestR = c, r
				}
			}
			t.obsChosen[k] = best
		}
		if cap(t.obsFreqs) < len(s.Clusters) {
			t.obsFreqs = make([]float64, len(s.Clusters))
		}
		t.obsFreqs = t.obsFreqs[:len(s.Clusters)]
		for ci := range s.Clusters {
			t.obsFreqs[ci] = s.Clusters[ci].Freq
		}
		t.cfg.Observe(EpochObservation{
			Now:          now,
			Apps:         t.views[:n],
			Rows:         rows,
			Chosen:       t.obsChosen,
			ClusterFreqs: t.obsFreqs,
		})
	}

	bestImp := math.Inf(-1)
	bestApp, bestCore := -1, platform.CoreID(-1)
	for k, a := range s.Apps {
		cur := ratings[k][a.Core]
		// Candidate targets: cores with the fewest other applications
		// (normally the free cores; with more apps than cores the
		// least-crowded ones).
		minOthers := 1 << 30
		for c := 0; c < s.NumCores; c++ {
			others := t.batch.Occupancy(c)
			if c == a.Core {
				others--
			}
			if others < minOthers {
				minOthers = others
			}
		}
		for c := 0; c < s.NumCores; c++ {
			if c == a.Core {
				continue
			}
			others := t.batch.Occupancy(c)
			if others != minOthers {
				continue
			}
			if imp := ratings[k][c] - cur; imp > bestImp {
				bestImp = imp
				bestApp, bestCore = k, platform.CoreID(c)
			}
		}
	}
	if bestApp >= 0 && bestImp > t.cfg.Hysteresis {
		if err := t.env.Migrate(s.Apps[bestApp].ID, bestCore); err == nil {
			t.dvfs.NotifyMigration()
			t.settle = t.cfg.SettleEpochs
		}
	}
}
