// Package rl implements TOP-RL, the paper's reinforcement-learning baseline
// for application migration (Section "RL-based Application Migration"):
// tabular Q-learning with one agent per running application, a shared
// Q-table for generalization, and a mediator that executes only the single
// best action per epoch and routes the next reward exclusively to the
// selected agent. The state space quantizes the same observables as the IL
// features; the action space is one migration target per core; the reward
// combines temperature (80 °C − T) with a −200 penalty on QoS violations.
// The DVFS control loop is the same as TOP-IL's (fair comparison).
package rl

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Params holds the Q-learning hyper-parameters (taken from the paper,
// which follows Lu et al.).
type Params struct {
	Epsilon float64 // ε-greedy exploration rate (0.1)
	Gamma   float64 // discount factor (0.8)
	Alpha   float64 // learning rate (0.05)
	// QoSPenalty is the reward on any QoS violation (−200).
	QoSPenalty float64
	// RewardBase: reward is RewardBase − T when all QoS targets are met.
	RewardBase float64
	// MigrationPeriod matches TOP-IL's epoch (0.5 s).
	MigrationPeriod float64
	// Learning enables run-time Q updates (disable to freeze a
	// pretrained policy — not used by the paper, which always learns
	// online, but useful for ablations).
	Learning bool
}

// DefaultParams returns the paper's settings.
func DefaultParams() Params {
	return Params{
		Epsilon:         0.1,
		Gamma:           0.8,
		Alpha:           0.05,
		QoSPenalty:      -200,
		RewardBase:      80,
		MigrationPeriod: 0.5,
		Learning:        true,
	}
}

// State-space quantization: QoS met (2) × L2D intensity (2) × current
// cluster (2) × LITTLE VF bucket (3) × big VF bucket (3) × LITTLE busy (2)
// × big busy (2) = 288 states; with 8 actions the Q-table has 2304 entries,
// matching the size reported in the paper.
const (
	numFreqBuckets = 3
	numStates      = 2 * 2 * 2 * numFreqBuckets * numFreqBuckets * 2 * 2
)

// l2dHighThreshold splits memory-intensive from compute-intensive
// applications (accesses per second).
const l2dHighThreshold = 8e6

// QTable is the shared action-value table.
type QTable struct {
	NumCores int         `json:"numCores"`
	Q        [][]float64 `json:"q"` // [state][action]
}

// NewQTable creates a zero-initialized table ("initialized with constant
// values" per the paper).
func NewQTable(numCores int) *QTable {
	q := make([][]float64, numStates)
	for s := range q {
		q[s] = make([]float64, numCores)
	}
	return &QTable{NumCores: numCores, Q: q}
}

// Entries returns the total number of table entries.
func (t *QTable) Entries() int { return numStates * t.NumCores }

// Save writes the table as gzipped JSON.
func (t *QTable) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	if err := json.NewEncoder(zw).Encode(t); err != nil {
		zw.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// LoadQTable reads a table written by Save.
func LoadQTable(path string) (*QTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	var t QTable
	if err := json.NewDecoder(zr).Decode(&t); err != nil {
		return nil, err
	}
	if len(t.Q) != numStates {
		return nil, fmt.Errorf("rl: table has %d states, want %d", len(t.Q), numStates)
	}
	return &t, nil
}

// stateOf quantizes one application's situation into a state index.
func stateOf(s features.Snapshot, k int, plat *platform.Platform) int {
	a := s.Apps[k]
	qosMet := 0
	if a.IPS >= a.QoS {
		qosMet = 1
	}
	l2dHigh := 0
	if a.L2DPS > l2dHighThreshold {
		l2dHigh = 1
	}
	cluster := a.Cluster // 0 or 1

	bucket := func(ci int) int {
		cs := s.Clusters[ci]
		pos := 0
		for i, f := range cs.Freqs {
			if f <= cs.Freq+1e-3 {
				pos = i
			}
		}
		b := pos * numFreqBuckets / len(cs.Freqs)
		if b >= numFreqBuckets {
			b = numFreqBuckets - 1
		}
		return b
	}
	fl, fb := bucket(0), bucket(1)

	busy := func(kind platform.ClusterKind) int {
		occupied, total := 0, 0
		for c := 0; c < s.NumCores; c++ {
			if plat.KindOf(platform.CoreID(c)) != kind {
				continue
			}
			total++
			for _, b := range s.Apps {
				if b.Core == c && b.ID != a.ID {
					occupied++
					break
				}
			}
		}
		if total > 0 && occupied*2 >= total {
			return 1
		}
		return 0
	}
	ul, ub := busy(platform.Little), busy(platform.Big)

	idx := qosMet
	idx = idx*2 + l2dHigh
	idx = idx*2 + cluster
	idx = idx*numFreqBuckets + fl
	idx = idx*numFreqBuckets + fb
	idx = idx*2 + ul
	idx = idx*2 + ub
	return idx
}

// TOPRL is the run-time RL manager. It implements sim.Manager and
// sim.Placer.
type TOPRL struct {
	table  *QTable
	params Params
	rng    *rand.Rand

	env     *sim.Env
	dvfs    *core.DVFSLoop
	nextMig float64

	// pending is the (state, action) of the agent the mediator selected
	// last epoch; the next epoch's reward updates only this entry.
	pending struct {
		valid bool
		state int
		act   int
		app   sim.AppID
	}

	stats core.OverheadStats
	ovh   overheadModel

	// Buffers reused between calls: the platform snapshot, the views it
	// is filled from, and the application count per core.
	snap      features.Snapshot
	views     []sim.AppView
	occupants []int
}

// overheadModel mirrors TOP-IL's accounting: the RL decision runs on the
// CPU (table lookups are cheap; counter reads dominate).
type overheadModel struct {
	migBase, migPerApp float64
	dvfsBase, perApp   float64
}

// New creates a TOP-RL manager sharing the given Q-table (pass a fresh
// table or a pretrained one). It panics on a nil table.
func New(table *QTable, params Params, seed int64) *TOPRL {
	if table == nil {
		panic("rl: nil Q-table")
	}
	return &TOPRL{
		table:  table,
		params: params,
		rng:    rand.New(rand.NewSource(seed)),
		ovh: overheadModel{
			migBase: 3.2e-3, migPerApp: 0.05e-3,
			dvfsBase: 0.10e-3, perApp: 0.027e-3,
		},
	}
}

// Name implements sim.Manager.
func (r *TOPRL) Name() string { return "TOP-RL" }

// Attach implements sim.Manager. TOP-RL's quantized state space encodes
// exactly two DVFS domains (matching the paper's Q-table size), so it
// panics on platforms with any other cluster count.
func (r *TOPRL) Attach(env *sim.Env) {
	if env.Platform().NumClusters() != 2 {
		panic("rl: TOP-RL's state quantization supports exactly 2 clusters")
	}
	r.env = env
	r.dvfs = core.NewDVFSLoop(env)
	r.nextMig = 0
	r.pending.valid = false
}

// Stats returns the overhead accounting.
func (r *TOPRL) Stats() core.OverheadStats { return r.stats }

// Place implements sim.Placer with TOP-IL's rule, core.PlaceOnFreeCore.
func (r *TOPRL) Place(job workload.Job) platform.CoreID {
	var c platform.CoreID
	c, r.views = core.PlaceOnFreeCore(r.env, r.views)
	return c
}

// Tick implements sim.Manager.
func (r *TOPRL) Tick(now float64) {
	if now >= r.nextMig-1e-9 {
		r.nextMig = now + r.params.MigrationPeriod
		r.epoch()
		return
	}
	n := r.dvfs.Step()
	r.stats.DVFSInvocations++
	cost := r.ovh.dvfsBase + float64(n)*r.ovh.perApp
	r.stats.DVFSSeconds += cost
	r.env.ChargeOverhead(cost)
}

// reward computes the scalar reward from the current platform state.
func (r *TOPRL) reward(s features.Snapshot) float64 {
	for _, a := range s.Apps {
		if a.IPS < a.QoS {
			return r.params.QoSPenalty
		}
	}
	return r.params.RewardBase - r.env.Temp()
}

// countOccupants returns the number of applications in views per core, in
// a buffer reused between calls.
func (r *TOPRL) countOccupants(views []sim.AppView, numCores int) []int {
	if cap(r.occupants) < numCores {
		r.occupants = make([]int, numCores)
	}
	r.occupants = r.occupants[:numCores]
	clear(r.occupants)
	for _, a := range views {
		r.occupants[a.Core]++
	}
	return r.occupants
}

// epoch runs one migration epoch: learn from the previous action's reward,
// then mediate the agents' next action.
func (r *TOPRL) epoch() {
	r.views = features.FromEnvInto(&r.snap, r.env, r.views)
	s := r.snap
	plat := r.env.Platform()
	n := len(s.Apps)
	r.stats.MigrationInvocations++
	cost := r.ovh.migBase + float64(n)*r.ovh.migPerApp
	r.stats.MigrationSeconds += cost
	r.env.ChargeOverhead(cost)

	// 1. Learning update for the previously selected agent (only that
	// agent receives the reward — the mediator's credit assignment).
	if r.pending.valid && r.params.Learning {
		rew := r.reward(s)
		next := -1
		for k, a := range s.Apps {
			if a.ID == r.pending.app {
				next = stateOf(s, k, plat)
				break
			}
		}
		q := r.table.Q[r.pending.state][r.pending.act]
		futur := 0.0
		if next >= 0 {
			futur = maxOf(r.table.Q[next])
		}
		r.table.Q[r.pending.state][r.pending.act] =
			q + r.params.Alpha*(rew+r.params.Gamma*futur-q)
	}
	r.pending.valid = false
	if n == 0 {
		return
	}

	// 2. Each agent proposes one ε-greedy action; the mediator executes
	// the proposal with the highest Q-value.
	occupants := r.countOccupants(r.views, s.NumCores)
	bestK, bestAct, bestQ := -1, -1, 0.0
	for k, a := range s.Apps {
		st := stateOf(s, k, plat)
		var act int
		if r.rng.Float64() < r.params.Epsilon && r.params.Learning {
			act = r.rng.Intn(s.NumCores)
		} else {
			act = argmaxAvoidingOccupied(r.table.Q[st], occupants, a.Core)
		}
		qv := r.table.Q[st][act]
		if bestK < 0 || qv > bestQ {
			bestK, bestAct, bestQ = k, act, qv
		}
	}
	aoi := s.Apps[bestK]
	// Refuse migrations onto cores occupied by other applications (the
	// mediator's contradiction avoidance).
	others := occupants[bestAct]
	if bestAct == aoi.Core {
		others--
	}
	if others > 0 {
		return
	}
	st := stateOf(s, bestK, plat)
	if err := r.env.Migrate(aoi.ID, platform.CoreID(bestAct)); err != nil {
		return
	}
	r.dvfs.NotifyMigration()
	r.pending.valid = true
	r.pending.state = st
	r.pending.act = bestAct
	r.pending.app = aoi.ID
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// argmaxAvoidingOccupied returns the best-valued action, preferring
// unoccupied targets (ties resolved toward lower core IDs).
func argmaxAvoidingOccupied(q []float64, occupants []int, cur int) int {
	best, bestV := -1, 0.0
	for c := range q {
		others := occupants[c]
		if c == cur {
			others--
		}
		if others > 0 {
			continue
		}
		if best < 0 || q[c] > bestV {
			best, bestV = c, q[c]
		}
	}
	if best < 0 {
		return cur
	}
	return best
}
