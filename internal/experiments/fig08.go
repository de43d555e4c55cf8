package experiments

import (
	"fmt"
	"repro/internal/sim"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig8Cell aggregates one (technique, arrival rate) combination over the
// repeated runs with different seeds.
type Fig8Cell struct {
	Technique   string
	ArrivalRate float64
	AvgTemp     stats.Summary // time-averaged sensor temperature
	PeakTemp    stats.Summary
	Violations  stats.Summary // applications violating their QoS target
	AvgUtil     stats.Summary
	PeakUtil    stats.Summary
	ThrottleSec stats.Summary
}

// Fig8Result is the paper's main experiment (Fig. 8a with fan, Fig. 8b
// without): temperature and QoS violations of the mixed 20-application
// workload across techniques and arrival rates. It also accumulates the
// CPU-time-per-VF-level breakdown that the paper plots as Fig. 10.
type Fig8Result struct {
	Fan   bool
	Cells []Fig8Cell
	// CPUTime[technique][cluster][level] is the mean (over seeds) busy
	// core-time in seconds, summed over all arrival rates — Fig. 10.
	CPUTime map[string][][]float64
}

// MeanTempOf averages a technique's AvgTemp over all arrival rates.
func (r *Fig8Result) MeanTempOf(technique string) float64 {
	var xs []float64
	for _, c := range r.Cells {
		if c.Technique == technique {
			xs = append(xs, c.AvgTemp.Mean)
		}
	}
	return stats.Mean(xs)
}

// Render prints the figure's bars.
func (r *Fig8Result) Render() string {
	cooling := "with fan (8a)"
	if !r.Fan {
		cooling = "without fan (8b)"
	}
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Fig. 8 — main experiment, %s: mean±std over seeds\n", cooling))
	t := stats.NewTable("technique", "rate[1/s]", "avg temp", "peak temp",
		"QoS violations", "avg util", "throttle[s]")
	for _, c := range r.Cells {
		t.AddRow(c.Technique, fmt.Sprintf("%.2f", c.ArrivalRate),
			c.AvgTemp.String(), c.PeakTemp.String(), c.Violations.String(),
			fmt.Sprintf("%.2f", c.AvgUtil.Mean), fmt.Sprintf("%.0f", c.ThrottleSec.Mean))
	}
	b.WriteString(t.String())

	// Per-technique averages over all rates, as bars.
	labels := Techniques()
	temps := make([]float64, len(labels))
	for i, tech := range labels {
		temps[i] = r.MeanTempOf(tech)
	}
	b.WriteString("\nmean temperature across rates:\n")
	b.WriteString(stats.BarChart(labels, temps, 40, "%.1f °C"))
	return b.String()
}

// RenderFig10 prints the CPU-time breakdown of the same runs (the paper's
// Fig. 10, reported for the no-fan experiment).
func (r *Fig8Result) RenderFig10() string {
	var b strings.Builder
	b.WriteString("Fig. 10 — total CPU time per cluster and VF level (all arrival rates)\n")
	for _, tech := range Techniques() {
		ct, ok := r.CPUTime[tech]
		if !ok {
			continue
		}
		b.WriteString(tech + ":\n")
		for ci, levels := range ct {
			cluster := "LITTLE"
			if ci == 1 {
				cluster = "big"
			}
			b.WriteString(fmt.Sprintf("  %-6s ", cluster))
			for li, v := range levels {
				if v >= 0.05 {
					b.WriteString(fmt.Sprintf("L%d:%.0fs ", li, v))
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Fig8Main runs the mixed-workload experiment for the given cooling setup.
// The (technique × rate × seed) matrix fans out on the executor; the
// reduction below walks the ordered results in exactly the sequential
// nesting, so every summary and CPU-time accumulation keeps its original
// floating-point evaluation order.
func (p *Pipeline) Fig8Main(fan bool) (*Fig8Result, error) {
	if err := p.Warm(); err != nil {
		return nil, err
	}
	var specs []RunSpec[*sim.Result]
	for _, tech := range Techniques() {
		for _, rate := range p.Scale.ArrivalRates {
			for si := range p.Scale.Seeds {
				tag := fmt.Sprintf("fan=%v/%s/r%.2f/seed%d", fan, tech, rate, p.Scale.Seeds[si])
				specs = append(specs, RunSpec[*sim.Result]{
					Tag: tag,
					Run: func() (*sim.Result, error) {
						return p.runMixed("fig8/"+tag, tech, si, rate, fan)
					},
				})
			}
		}
	}
	cells, err := RunMatrix(p, "fig8", specs)
	if err != nil {
		return nil, err
	}

	res := &Fig8Result{Fan: fan, CPUTime: map[string][][]float64{}}

	type accum struct {
		temps, peaks, viols, utils, peakUtils, throttles []float64
	}

	idx := 0
	for _, tech := range Techniques() {
		cpuAgg := make([][]float64, p.plat.NumClusters())
		for ci, c := range p.plat.Clusters {
			cpuAgg[ci] = make([]float64, c.NumOPPs())
		}
		for _, rate := range p.Scale.ArrivalRates {
			var a accum
			for range p.Scale.Seeds {
				r := cells[idx].Value
				idx++
				a.temps = append(a.temps, r.AvgTemp)
				a.peaks = append(a.peaks, r.PeakTemp)
				a.viols = append(a.viols, float64(r.Violations))
				a.utils = append(a.utils, r.AvgUtil)
				a.peakUtils = append(a.peakUtils, r.PeakUtil)
				a.throttles = append(a.throttles, r.ThrottleSeconds)
				for ci := range r.CPUTime {
					for li := range r.CPUTime[ci] {
						cpuAgg[ci][li] += r.CPUTime[ci][li] / float64(len(p.Scale.Seeds))
					}
				}
			}
			res.Cells = append(res.Cells, Fig8Cell{
				Technique:   tech,
				ArrivalRate: rate,
				AvgTemp:     stats.Summarize(a.temps),
				PeakTemp:    stats.Summarize(a.peaks),
				Violations:  stats.Summarize(a.viols),
				AvgUtil:     stats.Summarize(a.utils),
				PeakUtil:    stats.Summarize(a.peakUtils),
				ThrottleSec: stats.Summarize(a.throttles),
			})
		}
		res.CPUTime[tech] = cpuAgg
	}
	return res, nil
}

// runMixed executes one mixed-workload run.
func (p *Pipeline) runMixed(trace, tech string, seedIdx int, rate float64, fan bool) (*sim.Result, error) {
	mgr, err := p.Manager(tech, seedIdx)
	if err != nil {
		return nil, err
	}
	seed := p.Scale.Seeds[seedIdx]
	e := p.newEngine(trace, fan, seed)
	gen := workload.NewGenerator(100+seed, workload.MixedPool(), p.PeakIPS,
		0.2, 0.7, p.Scale.InstrScale)
	e.AddJobs(gen.Generate(p.Scale.MixedJobs, rate))
	// Measure over the workload's active period (as the paper does), not
	// an arbitrary fixed horizon: stop once every application finished,
	// with RunCap as a safety bound against QoS-starved stragglers.
	r := e.RunUntil(mgr, p.Scale.RunCap, e.Done)
	return r, nil
}
