package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// evalSeeds is the number of model/policy seeds per Fig. 8 cell. How long
// a cell simulates depends on its seed's mixed workload; eight seeds per
// cell keep a pass's cost close from one --seed to the next.
const evalSeeds = 8

// evalBench runs experiments.Pipeline.Fig8Main with and without fan, once
// per pass, at the full scale's run-time settings (20-application mixed
// workload, four techniques x four arrival rates) with evalSeeds seeds
// and one executor worker per CPU. The design-time artifacts it needs are
// built in setup at reduced size.
type evalBench struct {
	seed  int64
	p     *experiments.Pipeline
	first string // the run's first Fig. 8 render digest
}

func evalScale(seed int64) experiments.Scale {
	s := experiments.FullScale()
	s.Seeds = nil
	for i := int64(0); i < evalSeeds; i++ {
		s.Seeds = append(s.Seeds, seed*evalSeeds+i)
	}
	quick := experiments.QuickScale()
	s.OracleScenarios = 2
	s.OracleCfg = quick.OracleCfg
	s.TrainCfg = nn.TrainConfig{MaxEpochs: 1}
	// Half-length applications keep a pass near 3 s at eight seeds.
	s.InstrScale = 0.5
	s.RLPretrain = quick.RLPretrain
	return s
}

func (b *evalBench) setup(seed int64) error {
	b.seed = seed
	b.first = ""
	b.p = experiments.NewPipeline(evalScale(seed))
	b.p.Workers = runtime.NumCPU()
	return b.p.Warm()
}

func (b *evalBench) close() {}

// evalStats accumulates the traced passes' layer figures.
type evalStats struct {
	mu                sync.Mutex
	cells             samples // cell wall times, s
	simSeconds, ticks float64
	simWall           time.Duration
	migrations        int
	npu               busy
}

func (b *evalBench) measure(rec *recorder, seconds float64, o *outcome) (measurement, error) {
	var m measurement
	var st evalStats
	var matrixWall time.Duration
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds()+m.ops.median()/1e3 <= seconds; pass++ {
		t0 := time.Now()
		var render string
		for _, fan := range []bool{true, false} {
			var r *experiments.Fig8Result
			var err error
			if rec == nil {
				r, err = b.p.Fig8Main(fan)
			} else {
				r, err = b.tracedFig8(rec, pass, fan, &st)
			}
			if err != nil {
				return m, err
			}
			render += r.Render() + r.RenderFig10()
		}
		matrixWall += time.Since(t0)
		m.ops = append(m.ops, float64(time.Since(t0))/float64(time.Millisecond))
		b.verify(render, o)
	}
	m.facets = map[string]float64{"eval_s": m.ops.median() / 1e3}
	if rec != nil {
		n := float64(len(m.ops))
		p := rec.profile()
		npuD, npuCalls, npuRows := st.npu.snapshot()
		m.layers = map[string]float64{
			"sim.self_s":               p.self["sim.run"].Seconds() / n,
			"sim.speed":                st.simSeconds / st.simWall.Seconds(),
			"sim.ticks":                st.ticks / n,
			"core.tick_s":              p.self["core.tick"].Seconds() / n,
			"core.migrations":          float64(st.migrations) / n,
			"rl.tick_s":                p.self["rl.tick"].Seconds() / n,
			"governor.tick_s":          p.self["governor.tick"].Seconds() / n,
			"experiments.cells":        float64(len(st.cells)) / n,
			"experiments.cell_p50_s":   st.cells.median(),
			"experiments.cell_max_s":   st.cells.max(),
			"experiments.parallel_eff": st.cells.sum() / (matrixWall.Seconds() * float64(b.p.Workers)),
			"npu.calls":                float64(npuCalls) / n,
		}
		if npuCalls > 0 {
			m.layers["npu.rows_per_call"] = float64(npuRows) / float64(npuCalls)
			m.layers["npu.us_per_row"] = float64(npuD/time.Microsecond) / float64(npuRows)
		}
	}
	return m, nil
}

// verify checks a pass's Fig. 8/10 renders against the run's first pass
// (untraced, when the run is traced) and, for the default seed, against
// the recorded reference.
func (b *evalBench) verify(render string, o *outcome) {
	dg := digestBytes([]byte(render))
	o.check(len(render) > 0, "evaluate: empty render")
	if b.first == "" {
		b.first = dg
		fmt.Printf("digest evaluate seed %d: fig8=%s\n", b.seed, dg)
		if ref, ok := references["evaluate"][b.seed]; ok {
			o.check(dg == ref, "evaluate: render digest %s differs from the reference %s", dg, ref)
		}
		return
	}
	o.check(dg == b.first, "evaluate: render digest %s differs from the run's first pass %s", dg, b.first)
}

// tracedFig8 runs the same cells as Fig8Main on the pipeline's executor,
// with every manager and inference backend wrapped in a timer, and reduces
// them the way Fig8Main does so the render can be compared.
func (b *evalBench) tracedFig8(rec *recorder, pass int, fan bool, st *evalStats) (*experiments.Fig8Result, error) {
	sc := b.p.Scale
	root := rec.begin(fmt.Sprintf("evaluate/pass%d/fan=%v", pass, fan), "experiments.matrix", -1)
	var specs []experiments.RunSpec[*sim.Result]
	for _, tech := range experiments.Techniques() {
		for _, rate := range sc.ArrivalRates {
			for si := range sc.Seeds {
				tag := fmt.Sprintf("fan=%v/%s/r%.2f/seed%d", fan, tech, rate, sc.Seeds[si])
				group := fmt.Sprintf("evaluate/pass%d/%s", pass, tag)
				specs = append(specs, experiments.RunSpec[*sim.Result]{
					Tag: tag,
					Run: func() (*sim.Result, error) { return b.tracedCell(rec, root, group, tech, si, rate, fan, st) },
				})
			}
		}
	}
	cells, err := experiments.RunMatrix(b.p, "fig8", specs)
	rec.finish(root)
	if err != nil {
		return nil, err
	}
	return fig8Reduce(fan, sc, cells), nil
}

// tracedCell is one Fig. 8 cell: the mixed workload Fig8Main generates,
// under the technique's manager, until every application finished.
func (b *evalBench) tracedCell(rec *recorder, root int, group, tech string, si int, rate float64, fan bool, st *evalStats) (*sim.Result, error) {
	t0 := time.Now()
	cell := rec.begin(group, "experiments.cell", root)
	sc := b.p.Scale
	var mgr sim.Manager
	var be *timingBackend
	layer := "governor"
	switch tech {
	case "TOP-IL":
		models, err := b.p.Models()
		if err != nil {
			return nil, err
		}
		be = &timingBackend{inner: npu.New(models[si]), b: &busy{}}
		mgr, layer = core.New(be, core.DefaultConfig()), "core"
	case "TOP-RL":
		layer = "rl"
		fallthrough
	default:
		var err error
		if mgr, err = b.p.Manager(tech, si); err != nil {
			return nil, err
		}
	}
	wm, tm := wrapManager(mgr)
	seed := sc.Seeds[si]
	cfg := sim.DefaultConfig(fan, sc.TAmb)
	cfg.Seed = seed
	e := sim.New(cfg)
	gen := workload.NewGenerator(100+seed, workload.MixedPool(), b.p.PeakIPS, 0.2, 0.7, sc.InstrScale)
	e.AddJobs(gen.Generate(sc.MixedJobs, rate))

	runStart := time.Now()
	run := rec.begin(group, "sim.run", cell)
	r := e.RunUntil(wm, sc.RunCap, e.Done)
	rec.finish(run)
	runWall := time.Since(runStart)
	tick := rec.fold(group, layer+".tick", run, tm.d)
	if be != nil {
		d, _, _ := be.b.snapshot()
		rec.fold(group, "npu.infer", tick, d)
		st.npu.merge(be.b)
	}
	rec.finish(cell)

	st.mu.Lock()
	defer st.mu.Unlock()
	st.cells = append(st.cells, time.Since(t0).Seconds())
	st.simSeconds += e.Now()
	st.simWall += runWall
	st.ticks += math.Round(e.Now() / cfg.Dt)
	if tech == "TOP-IL" {
		st.migrations += r.Migrations
	}
	return r, nil
}

// fig8Reduce folds the ordered cells into a Fig8Result exactly as
// Fig8Main does.
func fig8Reduce(fan bool, sc experiments.Scale, cells []experiments.RunResult[*sim.Result]) *experiments.Fig8Result {
	plat := platform.HiKey970()
	res := &experiments.Fig8Result{Fan: fan, CPUTime: map[string][][]float64{}}
	idx := 0
	for _, tech := range experiments.Techniques() {
		cpuAgg := make([][]float64, plat.NumClusters())
		for ci, c := range plat.Clusters {
			cpuAgg[ci] = make([]float64, c.NumOPPs())
		}
		for _, rate := range sc.ArrivalRates {
			var temps, peaks, viols, utils, peakUtils, throttles []float64
			for range sc.Seeds {
				r := cells[idx].Value
				idx++
				temps = append(temps, r.AvgTemp)
				peaks = append(peaks, r.PeakTemp)
				viols = append(viols, float64(r.Violations))
				utils = append(utils, r.AvgUtil)
				peakUtils = append(peakUtils, r.PeakUtil)
				throttles = append(throttles, r.ThrottleSeconds)
				for ci := range r.CPUTime {
					for li := range r.CPUTime[ci] {
						cpuAgg[ci][li] += r.CPUTime[ci][li] / float64(len(sc.Seeds))
					}
				}
			}
			res.Cells = append(res.Cells, experiments.Fig8Cell{
				Technique:   tech,
				ArrivalRate: rate,
				AvgTemp:     stats.Summarize(temps),
				PeakTemp:    stats.Summarize(peaks),
				Violations:  stats.Summarize(viols),
				AvgUtil:     stats.Summarize(utils),
				PeakUtil:    stats.Summarize(peakUtils),
				ThrottleSec: stats.Summarize(throttles),
			})
		}
		res.CPUTime[tech] = cpuAgg
	}
	return res
}
