package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ModelEvalResult is the paper's model-in-isolation evaluation: train on
// most benchmarks, test on held-out AoIs, across the seeds (the paper
// reports 82±5 % of choices within 1 °C and 0.5±0.2 °C mean excess).
type ModelEvalResult struct {
	TestAoIs   []string
	WithinOneC stats.Summary
	MeanExcess stats.Summary
	Infeasible stats.Summary
	Examples   int
}

// Render prints the summary.
func (r *ModelEvalResult) Render() string {
	var b strings.Builder
	b.WriteString("Model evaluation — held-out AoIs: " + strings.Join(r.TestAoIs, ", ") + "\n")
	b.WriteString(fmt.Sprintf("  test examples:        %d\n", r.Examples))
	b.WriteString(fmt.Sprintf("  within 1°C of optimum: %.0f±%.0f %%\n",
		r.WithinOneC.Mean*100, r.WithinOneC.Std*100))
	b.WriteString(fmt.Sprintf("  mean excess:           %.2f±%.2f °C\n",
		r.MeanExcess.Mean, r.MeanExcess.Std))
	b.WriteString(fmt.Sprintf("  infeasible choices:    %.1f %%\n", r.Infeasible.Mean*100))
	return b.String()
}

// ModelEvaluation scores the pipeline's models (one per seed, trained on
// the training AoIs) on oracle traces of the held-out AoIs, benchmarks that
// no trained model has seen.
func (p *Pipeline) ModelEvaluation() (*ModelEvalResult, error) {
	models, err := p.Models()
	if err != nil {
		return nil, err
	}
	heldOut := workload.HeldOutSet()
	testScns, err := p.heldOutScenarios(heldOut)
	if err != nil {
		return nil, err
	}
	testData, err := oracle.BuildDataset(testScns, p.Scale.OracleCfg, nil)
	if err != nil {
		return nil, err
	}
	var within, excess, infeasible []float64
	for _, m := range models {
		ev, err := core.EvaluateModel(m, testData)
		if err != nil {
			return nil, err
		}
		within = append(within, ev.WithinOneC)
		excess = append(excess, ev.MeanExcess)
		infeasible = append(infeasible, ev.InfeasibleFrac)
	}
	return &ModelEvalResult{
		TestAoIs:   heldOut,
		WithinOneC: stats.Summarize(within),
		MeanExcess: stats.Summarize(excess),
		Infeasible: stats.Summarize(infeasible),
		Examples:   testData.Len(),
	}, nil
}

// heldOutScenarios builds evaluation scenarios whose AoIs are the held-out
// benchmarks.
func (p *Pipeline) heldOutScenarios(heldOut []string) ([]oracle.Scenario, error) {
	canon, err := oracle.CanonicalScenarios(heldOut)
	if err != nil {
		return nil, err
	}
	n := p.Scale.OracleScenarios / 4
	if n < 2 {
		n = 2
	}
	rnd, err := oracle.RandomScenarios(n, heldOut, 77)
	if err != nil {
		return nil, err
	}
	return append(canon, rnd...), nil
}
