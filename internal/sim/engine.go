// Package sim implements the discrete-time simulation engine that stands in
// for the HiKey970 board: it executes application models on cores with
// Linux-like time sharing, integrates the power and thermal models, samples
// the on-board temperature sensor at 20 Hz, applies DTM throttling, and
// exposes to management policies exactly the observables and knobs the real
// platform offers (perf counters, utilization, affinity, userspace DVFS).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// AppID identifies a running application instance within one simulation.
type AppID int

// Manager is a run-time resource-management policy. The engine calls Tick
// every Config.ManagerPeriod simulated seconds; the manager reads sensors
// and actuates knobs through the Env it was attached to.
type Manager interface {
	Name() string
	// Attach is called once before the simulation starts.
	Attach(env *Env)
	// Tick is called periodically with the current simulated time.
	Tick(now float64)
}

// Placer is an optional Manager extension: if implemented, the engine asks
// the manager where to place a newly arrived application. Otherwise the
// engine uses a Linux-CFS-like default (least-loaded core).
type Placer interface {
	Place(job workload.Job) platform.CoreID
}

// DTMConfig configures dynamic thermal management (the vendor throttling
// that the paper's training setup avoids by using a fan).
type DTMConfig struct {
	Enable   bool
	TripC    float64 // throttle above this sensor temperature
	ReleaseC float64 // stop limiting below this temperature
	Period   float64 // seconds between DTM decisions
}

// Config assembles a simulation.
type Config struct {
	Platform *platform.Platform
	Thermal  *thermal.Network
	Power    power.Model
	Perf     perf.Model

	Dt            float64 // simulation tick, default 10 ms
	ManagerPeriod float64 // manager tick, default 50 ms
	SensorPeriod  float64 // temperature sensor sampling, default 50 ms (20 Hz)
	SensorNoise   float64 // stddev of sensor noise in °C, default 0
	Seed          int64

	DTM DTMConfig

	// Migration cost model: an application stalls for
	// PenaltyBase + PenaltyPerMPKI·MPKI seconds after each migration
	// (cold caches; memory-intensive applications suffer more).
	PenaltyBase    float64
	PenaltyPerMPKI float64

	// WindowTicks is the length of the perf-counter averaging window in
	// ticks (default 10, i.e. 100 ms).
	WindowTicks int

	// Telemetry optionally receives the engine's sim_* metric families.
	// Nil (the default) leaves every counter a nil-receiver no-op, so
	// deterministic runs pay nothing.
	Telemetry *telemetry.Registry
	// Tracer optionally records sim-time spans (run, app lifetimes, DTM
	// throttle windows, migration instants). The engine installs its own
	// tick clock on it, so timestamps are simulated seconds and the span
	// stream is byte-identical across runs and worker counts.
	Tracer *telemetry.Tracer
	// PhaseClock optionally enables per-tick phase timings
	// (sim_phase_seconds). The sim package may not read the wall clock
	// itself — the detrand rule keeps it deterministic — so profiling
	// callers inject one (telemetry.NewWallClock). The clock feeds only
	// the Telemetry registry, never the simulation.
	PhaseClock telemetry.Clock
}

// DefaultConfig returns a ready-to-run configuration for the HiKey970 with
// the given cooling setup and ambient temperature.
func DefaultConfig(fan bool, tAmb float64) Config {
	return Config{
		Platform:      platform.HiKey970(),
		Thermal:       thermal.HiKey970Network(fan, tAmb),
		Power:         power.Default(),
		Perf:          perf.Default(),
		Dt:            0.01,
		ManagerPeriod: 0.05,
		SensorPeriod:  0.05,
		// Mobile SoCs throttle at 65-75 °C junction temperature; with
		// this trip point GTS/ondemand hits DTM under passive cooling at
		// high load (the paper's observation) while the fan keeps every
		// policy below it, as in the paper's training setup.
		DTM:            DTMConfig{Enable: true, TripC: 65, ReleaseC: 60, Period: 0.05},
		PenaltyBase:    0.002,
		PenaltyPerMPKI: 0.0007,
		WindowTicks:    10,
	}
}

// appState is the engine-internal state of one application instance.
type appState struct {
	id   AppID
	job  workload.Job
	core platform.CoreID

	arrived  bool
	done     bool
	executed float64 // instructions
	start    float64 // arrival time (== job.Arrival)
	end      float64 // completion time, valid if done

	stallUntil float64 // migration cold-cache stall deadline

	// rolling perf-counter window (instantaneous IPS/L2DPS per tick)
	winIPS  []float64
	winL2D  []float64
	winNext int
	winLen  int

	// Per-app perf-model cache: the phase-derived CPI-stack terms at the
	// app's current (core kind, effective frequency). Valid while pcEpoch
	// matches Engine.perfEpoch and executed < pcEnd (a conservative phase-
	// span bound, see workload.PhaseSpanAt); refreshPerfCache re-derives
	// every term from the ground-truth model, so cached and uncached paths
	// are bit-identical.
	pcEpoch int64
	pcEnd   float64 // instructions; refresh at or before the phase boundary
	pcTpi   float64 // s/instr: perf.TimePerInstr of the cached phase
	pcCu    float64 // cycle utilization of the cached phase
	pcL2pi  float64 // L2 accesses per instruction (L2APKI/1000)

	instrTotal float64 // lifetime instructions (for mean IPS)

	span *telemetry.Span // open lifetime span when tracing, else nil
}

func (a *appState) meanIPS(now float64) float64 {
	active := now - a.start
	if a.done {
		active = a.end - a.start
	}
	if active <= 0 {
		return 0
	}
	return a.instrTotal / active
}

func (a *appState) windowIPS() float64 { return winAvg(a.winIPS, a.winLen) }
func (a *appState) windowL2D() float64 { return winAvg(a.winL2D, a.winLen) }

func winAvg(w []float64, n int) float64 {
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += w[i]
	}
	return sum / float64(n)
}

func (a *appState) pushWindow(ips, l2d float64) {
	a.winIPS[a.winNext] = ips
	a.winL2D[a.winNext] = l2d
	if a.winNext++; a.winNext == len(a.winIPS) {
		a.winNext = 0
	}
	if a.winLen < len(a.winIPS) {
		a.winLen++
	}
}

// Engine is one simulation instance. Create with New, add jobs, then Run.
type Engine struct {
	cfg  Config
	rng  *rand.Rand // sensor noise, seeded from cfg.Seed on the first noisy read
	env  *Env
	mets *collector

	// pending[pendHead:] holds the not-yet-arrived jobs sorted by arrival.
	// Consumed entries are zeroed and skipped via the head index (never
	// resliced away), so long job traces neither pin finished jobs live nor
	// lose the front of the backing array; the prefix is compacted once it
	// dominates the slice.
	pending  []workload.Job
	pendHead int

	apps   []*appState // all instances, arrived or done
	byCore [][]AppID   // running app IDs per core
	live   int         // arrived, unfinished apps (Done without a scan)

	freqIdx []int // current VF level per cluster
	dtmCap  []int // max VF level allowed by DTM per cluster
	tripped bool

	// The clock is an integer tick counter: now = tick·Dt, and the
	// manager/sensor/DTM cadences are tick multiples. Accumulating floats
	// (now += dt) drifts over long runs — after hours of simulated time the
	// 500 ms epochs fall off the paper's schedule and runs stop being
	// bit-reproducible across different Run() call patterns. Each cadence
	// keeps the tick of its next firing (the multiples of its period, from
	// tick 0), so a tick tests it with one comparison instead of a division.
	tick         int64
	now          float64 // tick·Dt, cached for the float-time consumers
	managerEvery int64   // manager period in ticks
	sensorEvery  int64   // sensor period in ticks
	dtmEvery     int64   // DTM period in ticks
	managerAt    int64   // next manager tick
	sensorAt     int64   // next sensor sample
	dtmAt        int64   // next DTM decision
	managerFires int64   // lifetime fire counts (tick-clock regression tests)
	sensorFires  int64
	dtmFires     int64

	sensorT      float64 // last sensor sample (°C)
	overheadDebt float64 // seconds of management overhead to charge to core 0

	corePower []float64 // scratch: power per thermal node
	// coreUtil is a ring of the last WindowTicks per-core busy fractions,
	// one row of NumCores entries per tick: this tick writes row utilSlot,
	// and utilLen counts the filled rows (the ring is full after the first
	// WindowTicks ticks).
	coreUtil []float64
	utilSlot int
	utilLen  int

	// Incrementally maintained per-core structures: byCore holds exactly
	// the live (arrived, unfinished) apps of each core, liveCnt mirrors its
	// lengths for placement, maxStall is a high-water mark over the pending
	// migration-stall deadlines (when it has passed, every app on the core
	// is runnable and the per-tick stall scan is skipped), and powerCnt is
	// the post-completion runnable count of this tick's execute pass;
	// busyIn[ci] counts the cores of cluster ci with powerCnt > 0, which
	// is all the metrics sampler needs.
	clusterOf []int     // core -> cluster index (static topology)
	liveCnt   []int     // live apps per core (== len(byCore[c]))
	maxStall  []float64 // upper bound on stallUntil over apps of the core
	powerCnt  []int     // runnable apps per core as of this tick's execute
	busyIn    []int     // cores with runnable apps per cluster, this tick

	// perfEpoch invalidates the per-app perf caches, the effective VF
	// levels and the compiled power evaluators: it bumps whenever an
	// effective VF level may have changed (userspace DVFS requests, DTM
	// cap moves). levels re-derives effIdx and powEval when it has moved.
	perfEpoch    int64
	effIdx       []int            // effective VF level per cluster
	powEval      []power.CoreEval // per-cluster compiled evaluators
	powEvalEpoch int64

	tel   engineMetrics // nil-safe handles; no-ops without Config.Telemetry
	trace engineTrace   // sim-time spans; no-ops without Config.Tracer
}

// ticksOf converts a period in seconds to a whole number of Dt ticks
// (nearest, at least one): periods are configured as multiples of Dt, so
// rounding only absorbs float noise in the division.
func ticksOf(period, dt float64) int64 {
	t := int64(math.Round(period / dt))
	if t < 1 {
		t = 1
	}
	return t
}

// New creates an engine. The thermal network in cfg must have at least one
// node per core (core i -> node i); extra nodes (package) receive the
// uncore power on the last node. It panics on a malformed Config (missing
// platform or thermal network, non-positive periods, undersized network):
// configurations are built in code, so these are programming errors.
func New(cfg Config) *Engine {
	if cfg.Platform == nil || cfg.Thermal == nil {
		panic("sim: Config requires Platform and Thermal")
	}
	if cfg.Dt <= 0 || cfg.ManagerPeriod <= 0 || cfg.SensorPeriod <= 0 {
		panic("sim: non-positive period in Config")
	}
	if len(cfg.Thermal.Nodes) < cfg.Platform.NumCores() {
		panic("sim: thermal network smaller than core count")
	}
	if cfg.WindowTicks <= 0 {
		cfg.WindowTicks = 10
	}
	e := &Engine{
		cfg:          cfg,
		freqIdx:      make([]int, cfg.Platform.NumClusters()),
		dtmCap:       make([]int, cfg.Platform.NumClusters()),
		byCore:       make([][]AppID, cfg.Platform.NumCores()),
		corePower:    make([]float64, len(cfg.Thermal.Nodes)),
		clusterOf:    make([]int, cfg.Platform.NumCores()),
		liveCnt:      make([]int, cfg.Platform.NumCores()),
		maxStall:     make([]float64, cfg.Platform.NumCores()),
		powerCnt:     make([]int, cfg.Platform.NumCores()),
		busyIn:       make([]int, cfg.Platform.NumClusters()),
		effIdx:       make([]int, cfg.Platform.NumClusters()),
		powEval:      make([]power.CoreEval, cfg.Platform.NumClusters()),
		powEvalEpoch: -1,
		sensorT:      cfg.Thermal.Max(),
		managerEvery: ticksOf(cfg.ManagerPeriod, cfg.Dt),
		sensorEvery:  ticksOf(cfg.SensorPeriod, cfg.Dt),
		dtmEvery:     1,
	}
	for c := 0; c < cfg.Platform.NumCores(); c++ {
		e.clusterOf[c] = cfg.Platform.ClusterIndexOf(platform.CoreID(c))
	}
	if cfg.DTM.Enable {
		e.dtmEvery = ticksOf(cfg.DTM.Period, cfg.Dt)
	}
	for ci, c := range cfg.Platform.Clusters {
		e.freqIdx[ci] = 0
		e.dtmCap[ci] = c.NumOPPs() - 1
	}
	e.coreUtil = make([]float64, cfg.WindowTicks*cfg.Platform.NumCores())
	e.mets = newCollector(cfg.Platform)
	e.env = &Env{engine: e}
	e.tel = newEngineMetrics(cfg.Telemetry)
	e.trace = engineTrace{tracer: cfg.Tracer}
	// Spans recorded through cfg.Tracer carry simulated seconds: the
	// tracer's clock is this engine's tick clock from here on.
	cfg.Tracer.SetClock(telemetry.ClockFunc(func() float64 { return e.now }))
	return e
}

// AddJob schedules an application instance for arrival. It panics on a
// job whose spec fails validation; specs come from the workload tables or
// generator, so an invalid one indicates corrupted construction code.
func (e *Engine) AddJob(job workload.Job) {
	if err := job.Spec.Validate(); err != nil {
		panic("sim: invalid job: " + err.Error())
	}
	if e.pendHead == len(e.pending) {
		// Queue fully drained: restart at the front of the backing array.
		e.pending = e.pending[:0]
		e.pendHead = 0
	}
	e.pending = append(e.pending, job)
	live := e.pending[e.pendHead:]
	sort.SliceStable(live, func(i, j int) bool {
		return live[i].Arrival < live[j].Arrival
	})
}

// AddJobs schedules multiple jobs.
func (e *Engine) AddJobs(jobs []workload.Job) {
	for _, j := range jobs {
		e.AddJob(j)
	}
}

// Env returns the policy-facing environment (also useful in tests).
func (e *Engine) Env() *Env { return e.env }

// Done reports whether every scheduled application has arrived and
// finished.
func (e *Engine) Done() bool {
	return e.pendHead == len(e.pending) && e.live == 0
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Run simulates `duration` seconds under the given manager (nil = no
// management: frequencies stay wherever they are). It can be called
// repeatedly to extend a simulation.
func (e *Engine) Run(m Manager, duration float64) *Result {
	return e.RunUntil(m, duration, nil)
}

// RunUntil simulates until `duration` seconds have elapsed or stop()
// returns true (checked once per tick). stop may be nil.
func (e *Engine) RunUntil(m Manager, duration float64, stop func() bool) *Result {
	if m != nil {
		m.Attach(e.env)
	}
	e.trace.traceRunStart(e, m)
	end := e.tick + int64(math.Ceil(duration/e.cfg.Dt-1e-9))
	for e.tick < end {
		e.step(m)
		if stop != nil && stop() {
			break
		}
	}
	e.trace.traceRunEnd(e)
	return e.mets.result(e)
}

// step advances the simulation by one tick, first running the manager if
// its period falls on this tick. With Config.PhaseClock set, the
// wall-clock cost of each phase feeds sim_phase_seconds; the clock is
// never read otherwise, keeping the default path deterministic and free.
func (e *Engine) step(m Manager) {
	if e.tick == e.managerAt {
		e.managerAt += e.managerEvery
		if m != nil {
			e.managerFires++
			e.tel.managerTicks.Inc()
			m.Tick(e.now)
		}
	}
	dt := e.cfg.Dt
	var mark float64
	timed := e.cfg.PhaseClock != nil
	if timed {
		mark = e.cfg.PhaseClock.Now()
	}

	// 1. Arrivals.
	for e.pendHead < len(e.pending) && e.pending[e.pendHead].Arrival <= e.now+1e-9 {
		job := e.pending[e.pendHead]
		e.pending[e.pendHead] = workload.Job{} // release the spec's slices
		e.pendHead++
		e.admit(job, m)
	}
	if e.pendHead > 64 && e.pendHead*2 >= len(e.pending) {
		n := copy(e.pending, e.pending[e.pendHead:])
		for i := n; i < len(e.pending); i++ {
			e.pending[i] = workload.Job{}
		}
		e.pending = e.pending[:n]
		e.pendHead = 0
	}

	// 2. Execute applications with per-core time sharing, and derive each
	// core's power from it.
	e.execute(dt)
	if timed {
		mark = e.phaseMark(e.tel.phaseExecute, mark)
	}

	// 3. Thermal integration.
	e.integrate(dt)
	if timed {
		mark = e.phaseMark(e.tel.phaseThermal, mark)
	}

	// 4. Sensor sampling (20 Hz).
	if e.tick == e.sensorAt {
		e.sensorAt += e.sensorEvery
		e.sensorFires++
		e.tel.sensorSamples.Inc()
		e.sensorT = e.readSensor()
		e.tel.sensorTemp.Set(e.sensorT)
	}
	if timed {
		mark = e.phaseMark(e.tel.phaseSensor, mark)
	}

	// 5. DTM.
	if e.tick == e.dtmAt {
		e.dtmAt += e.dtmEvery
		if e.cfg.DTM.Enable {
			e.dtmFires++
			e.tel.dtmDecisions.Inc()
			e.dtmStep()
		}
	}
	if timed {
		e.phaseMark(e.tel.phaseDTM, mark)
	}

	e.mets.sample(e, dt)
	e.tick++
	e.now = float64(e.tick) * dt
}

// phaseMark observes the time since the previous mark into h and returns
// the new mark.
func (e *Engine) phaseMark(h *telemetry.Histogram, prev float64) float64 {
	now := e.cfg.PhaseClock.Now()
	h.Observe(now - prev)
	return now
}

// admit places a newly arrived job on a core and registers it. It panics
// if a Placer returns an out-of-range core: mappings outside the platform
// would silently corrupt the per-core bookkeeping.
func (e *Engine) admit(job workload.Job, m Manager) {
	var core platform.CoreID
	if p, ok := m.(Placer); ok {
		core = p.Place(job)
		if int(core) < 0 || int(core) >= e.cfg.Platform.NumCores() {
			panic(fmt.Sprintf("sim: placer returned invalid core %d", core))
		}
	} else {
		core = e.leastLoadedCore()
	}
	a := &appState{
		id:      AppID(len(e.apps)),
		job:     job,
		core:    core,
		start:   e.now,
		winIPS:  make([]float64, e.cfg.WindowTicks),
		winL2D:  make([]float64, e.cfg.WindowTicks),
		pcEpoch: -1,
	}
	a.arrived = true
	e.apps = append(e.apps, a)
	e.byCore[core] = append(e.byCore[core], a.id)
	e.liveCnt[core]++
	e.live++
	e.tel.arrivals.Inc()
	e.tel.appsRunning.Add(1)
	e.trace.traceAdmit(e, a)
}

// leastLoadedCore mimics CFS initial placement: the core with the fewest
// live applications, lowest ID on ties. It reads the incrementally
// maintained counts; TestPlacementMatchesScanReference pins its decisions
// against a scan over the per-core membership lists.
func (e *Engine) leastLoadedCore() platform.CoreID {
	best, bestN := platform.CoreID(0), e.liveCnt[0]
	for c := 1; c < len(e.liveCnt); c++ {
		if e.liveCnt[c] < bestN {
			best, bestN = platform.CoreID(c), e.liveCnt[c]
		}
	}
	return best
}

// execute advances every running application by dt seconds of core time
// and sets each core's power for this tick from the pre-step temperatures
// (read straight out of the kernel's state through TempsView, no copy),
// accumulating it into the per-cluster energy in core order. One pass per
// core does both: while no application completes in a tick, the activity
// terms sum as the applications run; a core where one completes sums them
// again over the survivors. An empty core costs only its power term.
func (e *Engine) execute(dt float64) {
	// Management overhead consumes time on core 0 (the paper's
	// implementation is single-threaded).
	core0Scale := 1.0
	if e.overheadDebt > 0 {
		used := e.overheadDebt
		if used > dt {
			used = dt
		}
		core0Scale = 1 - used/dt
		e.overheadDebt -= used
		e.mets.overheadCharged += used
	}

	e.levels()
	nc := len(e.byCore)
	utilRow := e.coreUtil[e.utilSlot*nc : e.utilSlot*nc+nc]
	temps := e.cfg.Thermal.TempsView()[:nc] // consumed before Step mutates it
	clusterOf, powerCnt, corePower := e.clusterOf[:nc], e.powerCnt[:nc], e.corePower[:nc]
	powEval, busyIn, energy := e.powEval, e.busyIn, e.mets.energyJ
	// Energy sums per cluster in core order; the running sum of a run of
	// same-cluster cores stays in a register between them.
	eCl, eAcc := -1, 0.0
	tickEnd := e.now + dt
	for c, ids := range e.byCore {
		ci := clusterOf[c]
		activity := 0.0
		if len(ids) == 0 {
			utilRow[c] = 0
			powerCnt[c] = 0
		} else {
			scale := 1.0
			if c == 0 {
				scale = core0Scale
			}
			activity, utilRow[c] = e.runCore(c, ids, scale, dt, tickEnd)
			if powerCnt[c] > 0 {
				busyIn[ci]++
			}
		}
		p := powEval[ci].Power(activity, temps[c])
		corePower[c] = p
		if ci != eCl {
			if eCl >= 0 {
				energy[eCl] = eAcc
			}
			eCl, eAcc = ci, energy[ci]
		}
		eAcc += p * dt
	}
	if eCl >= 0 {
		energy[eCl] = eAcc
	}
}

// runCore advances the live applications ids of core c by one tick at the
// given core-0 overhead scale and sets powerCnt[c]. It returns the core's
// activity factor for the power model — the sum, in membership order, of
// share·CycleUtilization over the runnable survivors of the tick, share
// being 1/powerCnt[c] — and its busy fraction for the utilization ring.
func (e *Engine) runCore(c int, ids []AppID, scale, dt, tickEnd float64) (activity, util float64) {
	// Runnable = live and not stalled by migration for the whole tick
	// (partially stalled apps run for the remainder). byCore holds
	// exactly the live apps, so unless a stall deadline is still
	// pending — the per-core high-water mark has not passed — the
	// count needs no scan at all.
	runnableN := len(ids)
	if e.maxStall[c] >= tickEnd {
		runnableN = 0
		for _, id := range ids {
			if e.apps[id].stallUntil < tickEnd {
				runnableN++
			}
		}
	}
	share := 0.0
	if runnableN > 0 {
		share = 1 / float64(runnableN)
		util = scale
	}

	// Completions are deferred to a single in-place compaction below so
	// the loop iterates byCore[c] directly, without the defensive
	// snapshot copy the old mutate-while-iterating removal needed.
	nDone := 0
	for _, id := range ids {
		a := e.apps[id]
		if a.stallUntil >= tickEnd {
			a.pushWindow(0, 0)
			continue
		}
		// avail is the stall-free fraction of this tick (cold-cache
		// penalties are shorter than a tick, so they must not be
		// rounded up to whole ticks).
		avail := 1.0
		if a.stallUntil > e.now {
			avail = (e.now + dt - a.stallUntil) / dt
		}
		if a.pcEpoch != e.perfEpoch || a.executed >= a.pcEnd {
			e.refreshPerfCache(a)
		}
		ips := share / a.pcTpi * scale * avail
		instr := ips * dt
		if a.executed+instr >= a.job.Spec.TotalInstr {
			// Completion within this tick.
			remain := a.job.Spec.TotalInstr - a.executed
			frac := remain / instr
			instr = remain
			a.done = true
			a.end = e.now + frac*dt
			nDone++
			e.live--
			e.tel.completions.Inc()
			e.tel.appsRunning.Add(-1)
			e.trace.traceComplete(a)
		}
		a.executed += instr
		a.instrTotal += instr
		a.pushWindow(ips, a.pcL2pi*ips)
		if nDone == 0 {
			// The power model reads the phase the app is in after this
			// tick's progress.
			if a.executed >= a.pcEnd {
				e.refreshPerfCache(a)
			}
			activity += share * a.pcCu
		}
	}
	e.powerCnt[c] = runnableN - nDone
	if nDone == 0 {
		return activity, util
	}
	out := ids[:0]
	for _, id := range ids {
		if !e.apps[id].done {
			out = append(out, id)
		}
	}
	e.byCore[c] = out
	e.liveCnt[c] -= nDone
	activity = 0.0
	if n := e.powerCnt[c]; n > 0 {
		share := 1 / float64(n)
		for _, id := range out {
			a := e.apps[id]
			if a.stallUntil >= tickEnd {
				continue
			}
			if a.executed >= a.pcEnd {
				e.refreshPerfCache(a)
			}
			activity += share * a.pcCu
		}
	}
	return activity, util
}

// levels re-derives the effective VF level and the compiled power
// evaluator of every cluster after perfEpoch has moved.
func (e *Engine) levels() {
	if e.powEvalEpoch != e.perfEpoch {
		e.compileLevels()
	}
}

func (e *Engine) compileLevels() {
	for ci, cluster := range e.cfg.Platform.Clusters {
		idx := e.freqIdx[ci]
		if idx > e.dtmCap[ci] {
			idx = e.dtmCap[ci]
		}
		e.effIdx[ci] = idx
		e.powEval[ci] = e.cfg.Power.Compile(cluster.Kind,
			cluster.FreqAt(idx), cluster.VoltageAt(idx))
	}
	e.powEvalEpoch = e.perfEpoch
}

// refreshPerfCache re-derives an app's cached CPI-stack terms from the
// ground truth (PhaseAt via PhaseSpanAt, plus the perf model at the app's
// current cluster and effective frequency). Every cached value is exactly
// the float64 the uncached per-tick path would compute — the cache only
// removes redundant recomputation, never changes results. The effective
// levels must be current (levels has run since perfEpoch last moved).
func (e *Engine) refreshPerfCache(a *appState) {
	ph, end := a.job.Spec.PhaseSpanAt(a.executed)
	cid := e.clusterOf[a.core]
	cluster := e.cfg.Platform.Clusters[cid]
	f := cluster.FreqAt(e.effIdx[cid])
	a.pcTpi = e.cfg.Perf.TimePerInstr(ph, cluster.Kind, f)
	a.pcCu = e.cfg.Perf.CycleUtilization(ph, cluster.Kind, f)
	a.pcL2pi = ph.L2APKI / 1000
	a.pcEnd = end
	a.pcEpoch = e.perfEpoch
}

// integrate steps the thermal network under the core powers execute set
// and the uncore power on the last node (package), then advances the
// utilization ring.
func (e *Engine) integrate(dt float64) {
	for i := len(e.byCore); i < len(e.corePower); i++ {
		e.corePower[i] = 0
	}
	e.corePower[len(e.corePower)-1] += e.cfg.Power.Uncore
	e.cfg.Thermal.Step(e.corePower, dt)
	if e.utilSlot++; e.utilSlot == e.cfg.WindowTicks {
		e.utilSlot = 0
	}
	if e.utilLen < e.cfg.WindowTicks {
		e.utilLen++
	}
}

// readSensor returns the on-board sensor reading: the hottest core
// temperature plus optional measurement noise. It reads the post-step
// temperatures directly from the kernel's buffer.
func (e *Engine) readSensor() float64 {
	temps := e.cfg.Thermal.TempsView()
	m := temps[0]
	for c := 1; c < e.cfg.Platform.NumCores(); c++ {
		if v := temps[c]; v > m {
			m = v
		}
	}
	if e.cfg.SensorNoise > 0 {
		if e.rng == nil {
			// Seeding costs about 10 µs, and noiseless engines (the oracle
			// builds several per labeled state) never need the RNG.
			e.rng = rand.New(rand.NewSource(e.cfg.Seed))
		}
		m += e.rng.NormFloat64() * e.cfg.SensorNoise
	}
	return m
}

// dtmStep lowers the per-cluster VF cap while the sensor exceeds the trip
// temperature and releases it gradually below the release temperature.
func (e *Engine) dtmStep() {
	switch {
	case e.sensorT > e.cfg.DTM.TripC:
		e.tripped = true
		for ci := range e.dtmCap {
			if e.dtmCap[ci] > 0 {
				e.dtmCap[ci]--
				e.perfEpoch++
			}
		}
	case e.sensorT < e.cfg.DTM.ReleaseC:
		e.tripped = false
		for ci, c := range e.cfg.Platform.Clusters {
			if e.dtmCap[ci] < c.NumOPPs()-1 {
				e.dtmCap[ci]++
				e.perfEpoch++
			}
		}
	}
	if e.tripped {
		e.mets.throttleSeconds += e.cfg.DTM.Period
		e.tel.throttleSeconds.Add(e.cfg.DTM.Period)
	}
	e.trace.traceDTM(e, e.tripped)
}

func (e *Engine) removeFromCore(id AppID, core platform.CoreID) {
	ids := e.byCore[core]
	for i, v := range ids {
		if v == id {
			e.byCore[core] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

// migrate moves a running application to another core, applying the
// cold-cache stall penalty.
func (e *Engine) migrate(id AppID, core platform.CoreID) error {
	if int(id) < 0 || int(id) >= len(e.apps) {
		return fmt.Errorf("sim: unknown app %d", id)
	}
	a := e.apps[id]
	if a.done {
		return fmt.Errorf("sim: app %d already finished", id)
	}
	if int(core) < 0 || int(core) >= e.cfg.Platform.NumCores() {
		return fmt.Errorf("sim: invalid core %d", core)
	}
	if core == a.core {
		return nil // no-op, no penalty
	}
	e.removeFromCore(id, a.core)
	e.liveCnt[a.core]--
	a.core = core
	a.pcEpoch = -1 // cluster kind / frequency changed under the app
	e.byCore[core] = append(e.byCore[core], id)
	e.liveCnt[core]++
	ph := a.job.Spec.PhaseAt(a.executed)
	a.stallUntil = e.now + e.cfg.PenaltyBase + e.cfg.PenaltyPerMPKI*ph.MPKI
	if a.stallUntil > e.maxStall[core] {
		e.maxStall[core] = a.stallUntil
	}
	e.mets.migrations++
	e.tel.migrations.Inc()
	e.trace.traceMigrate(e, id, int(core))
	return nil
}
