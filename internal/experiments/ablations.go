package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/oracle"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationResult compares a design choice against the paper's default.
type AblationResult struct {
	Name     string
	Default  map[string]float64
	Variant  map[string]float64
	Comment  string
	MetricFn string // what the values mean
}

// Render prints the comparison.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — " + r.Name + " (" + r.MetricFn + ")\n")
	t := stats.NewTable("metric", "paper default", "variant")
	keys := make([]string, 0, len(r.Default))
	for k := range r.Default {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.AddRow(k, fmt.Sprintf("%.3f", r.Default[k]), fmt.Sprintf("%.3f", r.Variant[k]))
	}
	b.WriteString(t.String())
	if r.Comment != "" {
		b.WriteString(r.Comment + "\n")
	}
	return b.String()
}

// datasetVariant is one Table 2 / Eq. 4 ablation: the model is retrained
// on a copy of the oracle dataset with one design choice undone.
type datasetVariant struct {
	name, comment string
	// edit undoes the choice in one example of the copy, whose Features
	// and Labels are private to it.
	edit func(e *oracle.Example, plat *platform.Platform)
}

// datasetVariants are the dataset ablations in report order. Feature
// layout: q, l2d, the AoI's current-mapping one-hot (one per core), the
// target, then one f̃_{x\AoI}/f_x ratio per cluster.
var datasetVariants = []datasetVariant{
	{
		// Soft labels teach the model that near-optimal mappings are
		// acceptable, which stabilizes choices among thermally
		// equivalent cores.
		name:    "soft vs hard labels",
		comment: "soft labels rate near-optimal mappings > 0; hard labels one-hot the optimum",
		edit: func(e *oracle.Example, _ *platform.Platform) {
			for c, l := range e.Labels {
				switch {
				case l == -1 || l == 0:
					// keep sentinel semantics
				case e.Temps[c] != oracle.NotApplicable && e.Temps[c] == e.OptTemp:
					e.Labels[c] = 1
				default:
					e.Labels[c] = 0
				}
			}
		},
	},
	{
		name:    "frequency-requirement features",
		comment: "variant zeroes the f̃_{x\\AoI}/f_x features of Table 2 group (c)",
		edit: func(e *oracle.Example, plat *platform.Platform) {
			first := 3 + plat.NumCores()
			for ci := 0; ci < plat.NumClusters(); ci++ {
				e.Features[first+ci] = 0
			}
		},
	},
	{
		// Table 2 group (a) claims the current mapping gives context to
		// the performance-counter readings: the same IPS means different
		// things on a LITTLE core at low VF and a big core at high VF.
		name:    "current-mapping features",
		comment: "variant zeroes the AoI current-mapping one-hot of Table 2 group (a)",
		edit: func(e *oracle.Example, plat *platform.Platform) {
			for c := 0; c < plat.NumCores(); c++ {
				e.Features[2+c] = 0
			}
		},
	},
}

// DatasetAblations compares mapping quality of the first pipeline model on
// the oracle dataset with that of a model retrained (same seed and
// topology) on each datasetVariants copy, scored on the copy. The variant
// trainings run as one run matrix.
func (p *Pipeline) DatasetAblations() ([]*AblationResult, error) {
	models, err := p.Models()
	if err != nil {
		return nil, err
	}
	d, err := p.Dataset()
	if err != nil {
		return nil, err
	}
	def, err := modelQuality(models[0], d)
	if err != nil {
		return nil, err
	}
	specs := make([]RunSpec[map[string]float64], len(datasetVariants))
	for i, v := range datasetVariants {
		specs[i] = RunSpec[map[string]float64]{Tag: v.name, Run: func() (map[string]float64, error) {
			vd := &oracle.Dataset{NumCores: d.NumCores, Examples: make([]oracle.Example, len(d.Examples))}
			for j, e := range d.Examples {
				e.Features = append([]float64(nil), e.Features...)
				e.Labels = append([]float64(nil), e.Labels...)
				v.edit(&e, p.plat)
				vd.Examples[j] = e
			}
			m, _, err := core.TrainModel(vd, p.topology(), p.Scale.Seeds[0], p.Scale.TrainCfg)
			if err != nil {
				return nil, err
			}
			return modelQuality(m, vd)
		}}
	}
	cells, err := RunMatrix(p, "ablation", specs)
	if err != nil {
		return nil, err
	}
	out := make([]*AblationResult, len(cells))
	for i, c := range cells {
		out[i] = &AblationResult{
			Name: datasetVariants[i].name, Default: def, Variant: c.Value,
			Comment:  datasetVariants[i].comment,
			MetricFn: "mapping quality on the oracle dataset",
		}
	}
	return out, nil
}

// modelQuality scores a model on an oracle dataset.
func modelQuality(m *nn.MLP, d *oracle.Dataset) (map[string]float64, error) {
	ev, err := core.EvaluateModel(m, d)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"within 1°C":  ev.WithinOneC,
		"mean excess": ev.MeanExcess,
		"infeasible":  ev.InfeasibleFrac,
	}, nil
}

// AblationDVFSStep compares the paper's one-step DVFS adjustment against
// jump-to-target on a dynamic mixed workload: jumping acts on inaccurate
// linear-scaling estimates.
func (p *Pipeline) AblationDVFSStep() (*AblationResult, error) {
	models, err := p.Models()
	if err != nil {
		return nil, err
	}
	run := func(trace string, jump bool) (map[string]float64, error) {
		cfg := core.DefaultConfig()
		cfg.DVFSJump = jump
		mgr := core.New(npu.New(models[0]), cfg)
		e := p.newEngine(trace, true, 1)
		gen := workload.NewGenerator(101, workload.MixedPool(), p.PeakIPS,
			0.2, 0.7, p.Scale.InstrScale)
		e.AddJobs(gen.Generate(p.Scale.MixedJobs, p.Scale.ArrivalRates[0]))
		r := e.Run(mgr, p.Scale.RunCap)
		return map[string]float64{
			"avg temp":   r.AvgTemp,
			"violations": float64(r.Violations),
			"migrations": float64(r.Migrations),
		}, nil
	}
	cells, err := RunMatrix(p, "ablation", []RunSpec[map[string]float64]{
		{Tag: "dvfs/one-step", Run: func() (map[string]float64, error) { return run("ablation/dvfs/one-step", false) }},
		{Tag: "dvfs/jump", Run: func() (map[string]float64, error) { return run("ablation/dvfs/jump", true) }},
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: "DVFS one-step vs jump-to-target", Default: cells[0].Value, Variant: cells[1].Value,
		Comment:  "variant jumps directly to the Eq.-(1) estimate each 50 ms",
		MetricFn: "mixed-workload outcome",
	}, nil
}
