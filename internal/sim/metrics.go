package sim

import "repro/internal/platform"

// AppResult summarizes one application instance after a simulation.
type AppResult struct {
	Name       string
	QoS        float64 // target IPS
	MeanIPS    float64 // achieved IPS over the active period
	Finished   bool
	Violated   bool // MeanIPS below the QoS target
	ActiveSecs float64
	Core       platform.CoreID // final mapping
}

// Result is the outcome of a simulation run.
type Result struct {
	Duration float64

	AvgTemp  float64 // °C, time average of the sensor temperature
	PeakTemp float64 // °C

	Apps       []AppResult
	Violations int // number of applications violating their QoS target

	// CPUTime[cluster][level] is the busy core-time (core-seconds) spent
	// at each VF level — the paper's Fig. 10 breakdown.
	CPUTime [][]float64

	Migrations      int
	ThrottleSeconds float64
	OverheadSeconds float64

	AvgUtil  float64 // mean fraction of busy cores
	PeakUtil float64

	// EnergyJ[cluster] is the integrated core energy per cluster in
	// joules; UncoreEnergyJ covers the rest-of-SoC power. Energy is a
	// simulator-side metric (the real board has no power sensors — no
	// policy may read it), reported for analyses that relate temperature
	// optimization to the energy optimization of prior work.
	EnergyJ       []float64
	UncoreEnergyJ float64
}

// TotalEnergyJ returns the total integrated energy in joules.
func (r *Result) TotalEnergyJ() float64 {
	sum := r.UncoreEnergyJ
	for _, e := range r.EnergyJ {
		sum += e
	}
	return sum
}

// TotalCPUTime returns the total busy core-seconds.
func (r *Result) TotalCPUTime() float64 {
	sum := 0.0
	for _, lv := range r.CPUTime {
		for _, v := range lv {
			sum += v
		}
	}
	return sum
}

// ViolationFrac returns the fraction of applications that violated QoS.
func (r *Result) ViolationFrac() float64 {
	if len(r.Apps) == 0 {
		return 0
	}
	return float64(r.Violations) / float64(len(r.Apps))
}

// qosTolerance is the relative slack below the QoS target still counted as
// meeting it (sensor/counter granularity).
const qosTolerance = 0.02

// collector accumulates metrics during a run.
type collector struct {
	plat *platform.Platform

	tempTimeInt float64 // ∫ sensor dt
	peakTemp    float64
	timeAcc     float64

	cpuTime [][]float64

	utilTimeInt float64
	peakUtil    float64

	migrations      int
	throttleSeconds float64
	overheadCharged float64

	energyJ       []float64
	uncoreEnergyJ float64
}

func newCollector(p *platform.Platform) *collector {
	ct := make([][]float64, p.NumClusters())
	for ci, c := range p.Clusters {
		ct[ci] = make([]float64, c.NumOPPs())
	}
	return &collector{
		plat:     p,
		cpuTime:  ct,
		energyJ:  make([]float64, p.NumClusters()),
		peakTemp: -1e9,
	}
}

// sample is called once per tick after integration and DTM. The busy
// cores of each cluster come from this tick's execute pass, which counts
// them up from the zeros sample leaves, and core energy is accumulated
// there, so the sampler does not walk the cores.
func (m *collector) sample(e *Engine, dt float64) {
	m.timeAcc += dt
	m.tempTimeInt += e.sensorT * dt
	if e.sensorT > m.peakTemp {
		m.peakTemp = e.sensorT
	}

	// Busy core-time goes to the level in effect after this tick's DTM
	// decision. Each busy core adds dt on its own: one n·dt would round
	// differently.
	busy := 0
	for ci, n := range e.busyIn {
		if n == 0 {
			continue
		}
		e.busyIn[ci] = 0
		e.levels()
		busy += n
		lv := &m.cpuTime[ci][e.effIdx[ci]]
		v := *lv
		for ; n > 0; n-- {
			v += dt
		}
		*lv = v
	}
	util := float64(busy) / float64(len(e.byCore))
	m.utilTimeInt += util * dt
	if util > m.peakUtil {
		m.peakUtil = util
	}
	m.uncoreEnergyJ += e.cfg.Power.Uncore * dt
}

// result assembles the final Result.
func (m *collector) result(e *Engine) *Result {
	r := &Result{
		Duration:        m.timeAcc,
		PeakTemp:        m.peakTemp,
		Migrations:      m.migrations,
		ThrottleSeconds: m.throttleSeconds,
		OverheadSeconds: m.overheadCharged,
		PeakUtil:        m.peakUtil,
	}
	if m.timeAcc > 0 {
		r.AvgTemp = m.tempTimeInt / m.timeAcc
		r.AvgUtil = m.utilTimeInt / m.timeAcc
	}
	r.CPUTime = make([][]float64, len(m.cpuTime))
	for ci := range m.cpuTime {
		r.CPUTime[ci] = append([]float64(nil), m.cpuTime[ci]...)
	}
	r.EnergyJ = append([]float64(nil), m.energyJ...)
	r.UncoreEnergyJ = m.uncoreEnergyJ
	for _, a := range e.apps {
		if !a.arrived {
			continue
		}
		active := e.now - a.start
		if a.done {
			active = a.end - a.start
		}
		mean := a.meanIPS(e.now)
		res := AppResult{
			Name:       a.job.Spec.Name,
			QoS:        a.job.QoS,
			MeanIPS:    mean,
			Finished:   a.done,
			Violated:   mean < a.job.QoS*(1-qosTolerance),
			ActiveSecs: active,
			Core:       a.core,
		}
		if res.Violated {
			r.Violations++
		}
		r.Apps = append(r.Apps, res)
	}
	return r
}
