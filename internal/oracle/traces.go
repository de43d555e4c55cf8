// Package oracle implements the design-time side of TOP-IL: collecting
// execution traces of (AoI, background) scenarios over a grid of per-
// cluster VF levels, and extracting oracle demonstrations (training
// examples with soft labels) from those traces, following Section
// "Oracle Demonstrations" of the paper.
//
// The paper's key trick is reproduced: traces are collected per VF-level
// combination (not per QoS target), and many QoS-target / background-
// requirement selections are swept afterwards over the same traces, which
// avoids redundant executions. A DAgger query, which reads only a few
// points, uses an on-demand set (NewTraceSet) that simulates each point
// when it is first read.
package oracle

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BackgroundApp is one background application pinned to a core for the
// whole scenario.
type BackgroundApp struct {
	Spec workload.AppSpec
	Core platform.CoreID
}

// Scenario is one (AoI, background) combination for trace collection.
type Scenario struct {
	AoI        workload.AppSpec
	Background []BackgroundApp
}

// FreeCores returns the cores not occupied by background, ascending.
func (s Scenario) FreeCores(numCores int) []platform.CoreID {
	occ := make([]bool, numCores)
	for _, b := range s.Background {
		occ[b.Core] = true
	}
	var free []platform.CoreID
	for c := 0; c < numCores; c++ {
		if !occ[c] {
			free = append(free, platform.CoreID(c))
		}
	}
	return free
}

// Validate checks the scenario against a platform.
func (s Scenario) Validate(numCores int) error {
	if err := s.AoI.Validate(); err != nil {
		return err
	}
	occ := make([]bool, numCores)
	for _, b := range s.Background {
		if err := b.Spec.Validate(); err != nil {
			return err
		}
		if int(b.Core) < 0 || int(b.Core) >= numCores {
			return fmt.Errorf("oracle: background core %d out of range", b.Core)
		}
		if occ[b.Core] {
			return fmt.Errorf("oracle: two background apps on core %d", b.Core)
		}
		occ[b.Core] = true
	}
	if len(s.FreeCores(numCores)) == 0 {
		return fmt.Errorf("oracle: no free core for the AoI")
	}
	return nil
}

// Config controls trace collection and example extraction.
type Config struct {
	Fan  bool    // active cooling for trace collection (the paper's setup)
	TAmb float64 // ambient temperature in °C

	// LevelGrid holds the VF-level indices traced per cluster (the
	// paper's "reduced set of VF levels").
	LevelGrid []int

	// WarmupSec runs the background alone before measuring (paper: 2 min)
	// to reach a consistent initial temperature.
	WarmupSec float64
	// MeasureSec is the AoI measurement window (stands in for the
	// paper's 10^10-instruction trace length).
	MeasureSec float64
	// Dt is the simulation tick for trace runs.
	Dt float64

	// QoSFracs are the QoS-target fractions of the AoI's maximum traced
	// IPS swept during extraction.
	QoSFracs []float64
	// Alpha is the soft-label temperature sensitivity of Eq. (4).
	Alpha float64

	// MaxExamplesPerScenario caps the examples extracted per scenario by
	// deterministic subsampling (0 = unlimited). The paper's dataset has
	// ≈198 examples per (AoI, background) combination; dense sweeps can
	// produce far more, which mostly adds redundancy.
	MaxExamplesPerScenario int

	Seed int64
}

// DefaultConfig returns the standard oracle configuration.
func DefaultConfig() Config {
	return Config{
		Fan:        true,
		TAmb:       25,
		LevelGrid:  []int{0, 2, 4, 6, 8},
		WarmupSec:  120,
		MeasureSec: 20,
		Dt:         0.02,
		QoSFracs:   []float64{0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85},
		// The paper sets α=1 for the HiKey970's thermal scale (mapping
		// differences of several °C). Our simulated platform produces
		// smaller per-mapping differences, so the same label contrast
		// needs a higher sensitivity; α trades tolerance of near-optimal
		// mappings against sensor-noise susceptibility, exactly as
		// discussed in the paper.
		Alpha: 2,
	}
}

// QuickConfig is DefaultConfig on a coarse 3-level grid with short
// warmup and measurement windows: the smoke-scale experiments, online
// labeling and topil-oracle -quick use it.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.LevelGrid = []int{0, 4, 8}
	cfg.WarmupSec = 10
	cfg.MeasureSec = 3
	cfg.Dt = 0.02
	return cfg
}

// TracePoint is the measurement of one (AoI core, f_l, f_b) execution.
type TracePoint struct {
	AoIIPS   float64 // mean IPS of the AoI over the measurement window
	AoIL2DPS float64 // windowed L2D accesses per second at window end
	PeakTemp float64 // °C, peak sensor temperature during the window
}

// traceKey indexes trace points: AoI core and the per-cluster positions
// within Config.LevelGrid.
type traceKey struct {
	core   platform.CoreID
	li, bi int // indices INTO LevelGrid
}

// TraceSet holds the trace points of one scenario. A set from NewTraceSet
// simulates each point the first time it is read and keeps it, so a
// DAgger query pays only for the grid column per free core that Eq. (3)
// reads. A set from LoadTraces holds what its file held and never
// simulates. The exported fields describe the set and must not be
// modified; all methods are safe for concurrent use.
type TraceSet struct {
	Scenario  Scenario
	Grid      []int // copy of Config.LevelGrid
	NumCores  int
	FreeCores []platform.CoreID

	cfg *Config // nil for a loaded set
	// mu guards the two maps, not the simulations: each entry is made
	// under it and runs its simulation once, outside it, on its first
	// call, and every other caller of the entry waits for that result.
	// Different keys therefore simulate concurrently, and each key once.
	mu     sync.Mutex
	points map[traceKey]func() (TracePoint, error)
	warm   map[[2]int]func() []float64 // °C per thermal node, by (li, bi)
	runs   atomic.Int64                // warm-ups and measurements run
}

// NewTraceSet validates the scenario and the level grid and returns a set
// with no point simulated yet.
func NewTraceSet(scn Scenario, cfg Config) (*TraceSet, error) {
	plat := platform.HiKey970()
	if err := scn.Validate(plat.NumCores()); err != nil {
		return nil, err
	}
	if len(cfg.LevelGrid) == 0 {
		return nil, fmt.Errorf("oracle: empty level grid")
	}
	for _, l := range cfg.LevelGrid {
		for _, c := range plat.Clusters {
			if l < 0 || l >= c.NumOPPs() {
				return nil, fmt.Errorf("oracle: level %d outside cluster ladder", l)
			}
		}
	}
	return &TraceSet{
		Scenario:  scn,
		Grid:      append([]int(nil), cfg.LevelGrid...),
		NumCores:  plat.NumCores(),
		FreeCores: scn.FreeCores(plat.NumCores()),
		cfg:       &cfg,
		points:    make(map[traceKey]func() (TracePoint, error)),
		warm:      make(map[[2]int]func() []float64),
	}, nil
}

// CollectTraces returns the scenario's trace set with every (free core,
// f_l, f_b) point simulated. Per VF combination, the background is warmed
// up once and the warm temperature field is reused for every AoI
// placement, mirroring the paper's redundancy-avoidance.
func CollectTraces(scn Scenario, cfg Config) (*TraceSet, error) {
	ts, err := NewTraceSet(scn, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := ts.fill(); err != nil {
		return nil, err
	}
	return ts, nil
}

// Point returns the trace point for the AoI on core at grid positions
// (li, bi), simulating it on first read; concurrent first reads of one
// key share one simulation. A point outside the set — a background core,
// a position off the grid, or a key a loaded set lacks — is an error, as
// is a failed simulation, which every later read of the key returns too.
func (ts *TraceSet) Point(core platform.CoreID, li, bi int) (TracePoint, error) {
	k := traceKey{core, li, bi}
	ts.mu.Lock()
	get, ok := ts.points[k]
	if !ok {
		if ts.cfg == nil || li < 0 || li >= len(ts.Grid) || bi < 0 || bi >= len(ts.Grid) ||
			!slices.Contains(ts.FreeCores, core) {
			ts.mu.Unlock()
			return TracePoint{}, fmt.Errorf("oracle: missing trace point core=%d li=%d bi=%d", core, li, bi)
		}
		get = sync.OnceValues(func() (TracePoint, error) {
			ts.runs.Add(1)
			return measure(ts.Scenario, *ts.cfg, ts.Grid[li], ts.Grid[bi], core, ts.warmup(li, bi))
		})
		ts.points[k] = get
	}
	ts.mu.Unlock()
	return get()
}

// warmup returns the warm temperature field at grid positions (li, bi),
// running the background warm-up on first use; concurrent first uses
// share one run.
func (ts *TraceSet) warmup(li, bi int) []float64 {
	ts.mu.Lock()
	get, ok := ts.warm[[2]int{li, bi}]
	if !ok {
		get = sync.OnceValue(func() []float64 {
			ts.runs.Add(1)
			return warmupTemps(ts.Scenario, *ts.cfg, ts.Grid[li], ts.Grid[bi])
		})
		ts.warm[[2]int{li, bi}] = get
	}
	ts.mu.Unlock()
	return get()
}

// fill reads every point of the grid, in (f_l, f_b, core) order, and
// returns the set's points; a loaded set returns what its file held.
func (ts *TraceSet) fill() (map[traceKey]TracePoint, error) {
	if ts.cfg != nil {
		for li := range ts.Grid {
			for bi := range ts.Grid {
				for _, core := range ts.FreeCores {
					if _, err := ts.Point(core, li, bi); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	ts.mu.Lock()
	gets := maps.Clone(ts.points)
	ts.mu.Unlock()
	points := make(map[traceKey]TracePoint, len(gets))
	for k, get := range gets {
		p, err := get()
		if err != nil {
			return nil, err
		}
		points[k] = p
	}
	return points, nil
}

// maxAoIIPS returns the highest AoI IPS among the points — the reference
// for sweeping QoS-target fractions.
func maxAoIIPS(points map[traceKey]TracePoint) float64 {
	m := 0.0
	for _, p := range points {
		if p.AoIIPS > m {
			m = p.AoIIPS
		}
	}
	return m
}

// pinned is the trace-collection manager: it pins both clusters to fixed
// VF levels and performs no migrations.
type pinned struct {
	env        *sim.Env
	little     int
	big        int
	placements []platform.CoreID // consumed in arrival order
	next       int
}

func (m *pinned) Name() string        { return "oracle-pinned" }
func (m *pinned) Attach(env *sim.Env) { m.env = env }
func (m *pinned) Tick(now float64) {
	m.env.SetClusterFreqIndex(0, m.little)
	m.env.SetClusterFreqIndex(1, m.big)
}
func (m *pinned) Place(j workload.Job) platform.CoreID {
	c := m.placements[m.next]
	m.next++
	return c
}

// endless turns a spec into a never-completing instance for tracing.
func endless(spec workload.AppSpec) workload.AppSpec {
	spec.TotalInstr = 1e18
	return spec
}

// warmupTemps runs the background alone at the given levels and returns the
// warmed temperature field.
func warmupTemps(scn Scenario, cfg Config, ll, bl int) []float64 {
	sc := sim.DefaultConfig(cfg.Fan, cfg.TAmb)
	if cfg.Dt > 0 {
		sc.Dt = cfg.Dt
	}
	e := sim.New(sc)
	mgr := &pinned{little: ll, big: bl}
	for _, b := range scn.Background {
		mgr.placements = append(mgr.placements, b.Core)
		e.AddJob(workload.Job{Spec: endless(b.Spec), QoS: 0, Arrival: 0})
	}
	e.Run(mgr, cfg.WarmupSec)
	return sc.Thermal.Temps() // already a copy
}

// measure runs background + AoI on `core` at the given levels, starting
// from the warm temperature field, and returns the trace point.
func measure(scn Scenario, cfg Config, ll, bl int, core platform.CoreID,
	warm []float64) (TracePoint, error) {
	sc := sim.DefaultConfig(cfg.Fan, cfg.TAmb)
	if cfg.Dt > 0 {
		sc.Dt = cfg.Dt
	}
	sc.Thermal.SetTemps(warm)
	e := sim.New(sc)
	mgr := &pinned{little: ll, big: bl}
	for _, b := range scn.Background {
		mgr.placements = append(mgr.placements, b.Core)
		e.AddJob(workload.Job{Spec: endless(b.Spec), QoS: 0, Arrival: 0})
	}
	mgr.placements = append(mgr.placements, core)
	e.AddJob(workload.Job{Spec: endless(scn.AoI), QoS: 0, Arrival: 0})
	res := e.Run(mgr, cfg.MeasureSec)

	aoi := res.Apps[len(res.Apps)-1]
	if aoi.Name != scn.AoI.Name {
		return TracePoint{}, fmt.Errorf("oracle: AoI result mixup (%s)", aoi.Name)
	}
	var l2dps float64
	for _, a := range e.Env().Apps() {
		if a.Core == core && a.Name == scn.AoI.Name {
			l2dps = a.L2DPS
		}
	}
	return TracePoint{
		AoIIPS:   aoi.MeanIPS,
		AoIL2DPS: l2dps,
		PeakTemp: res.PeakTemp,
	}, nil
}

// RandomScenarios draws n scenarios: an AoI from pool, 0-6 background
// applications from pool on random distinct cores, always leaving at least
// two cores free (one per cluster) so the migration choice is meaningful.
func RandomScenarios(n int, pool []string, seed int64) ([]Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]workload.AppSpec, 0, len(pool))
	for _, name := range pool {
		s, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("oracle: unknown benchmark %q", name)
		}
		specs = append(specs, s)
	}
	plat := platform.HiKey970()
	numCores := plat.NumCores()

	var out []Scenario
	for i := 0; i < n; i++ {
		scn := Scenario{AoI: specs[rng.Intn(len(specs))]}
		nBg := rng.Intn(numCores - 1) // 0..6
		perm := rng.Perm(numCores)
		// Keep one LITTLE and one big core free.
		freeL := pickCoreOfKind(plat, perm, platform.Little)
		freeB := pickCoreOfKind(plat, perm, platform.Big)
		placed := 0
		for _, c := range perm {
			if placed >= nBg {
				break
			}
			if platform.CoreID(c) == freeL || platform.CoreID(c) == freeB {
				continue
			}
			scn.Background = append(scn.Background, BackgroundApp{
				Spec: specs[rng.Intn(len(specs))],
				Core: platform.CoreID(c),
			})
			placed++
		}
		out = append(out, scn)
	}
	return out, nil
}

// CanonicalScenarios returns two deterministic scenarios per pool
// benchmark: one with an empty background (the paper's motivational
// Scenario 1 — the AoI alone on the chip) and one with six background
// applications on cores 0,1,2 and 4,5,7 leaving cores 3 and 6 free (the
// layout of the paper's illustrative training-data example). Mixing these
// with RandomScenarios ensures the sweep covers both extremes of system
// load for every benchmark.
func CanonicalScenarios(pool []string) ([]Scenario, error) {
	specs := make([]workload.AppSpec, 0, len(pool))
	for _, name := range pool {
		s, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("oracle: unknown benchmark %q", name)
		}
		specs = append(specs, s)
	}
	bgCores := []platform.CoreID{0, 1, 2, 4, 5, 7}
	var out []Scenario
	for i, aoi := range specs {
		out = append(out, Scenario{AoI: aoi})
		loaded := Scenario{AoI: aoi}
		for j, c := range bgCores {
			loaded.Background = append(loaded.Background, BackgroundApp{
				Spec: specs[(i+1+j)%len(specs)],
				Core: c,
			})
		}
		out = append(out, loaded)
	}
	return out, nil
}

// pickCoreOfKind returns the first core in perm belonging to a cluster of
// kind k. It panics if the platform has no cluster of that kind: callers
// iterate the platform's own cluster kinds, so a miss is a programming
// error.
func pickCoreOfKind(plat *platform.Platform, perm []int, k platform.ClusterKind) platform.CoreID {
	for _, c := range perm {
		if plat.KindOf(platform.CoreID(c)) == k {
			return platform.CoreID(c)
		}
	}
	panic("oracle: platform without cluster kind " + k.String())
}
