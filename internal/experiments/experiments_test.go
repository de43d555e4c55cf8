package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// One quick-scale pipeline shared by all tests in this package, behind a
// memo of every figure: the golden report and the per-figure tests read
// the same results, so no figure runs twice in one test process.
var (
	pipeOnce sync.Once
	pipe     *memoFigures
)

func pipeline(t *testing.T) *memoFigures {
	t.Helper()
	if testing.Short() {
		// The oracle search plus model training behind this helper takes
		// minutes under the race detector's ~20x slowdown; `make race`
		// runs this package with -short and relies on the cheaper
		// artifacts and concurrency tests for coverage.
		t.Skip("skipping full-pipeline experiment in -short mode")
	}
	pipeOnce.Do(func() {
		pipe = &memoFigures{Pipeline: NewPipeline(QuickScale()), results: map[string]*memoResult{}}
	})
	return pipe
}

// memoFigures runs each figure of its pipeline at most once.
type memoFigures struct {
	*Pipeline
	mu      sync.Mutex
	results map[string]*memoResult
}

type memoResult struct {
	once sync.Once
	val  any
	err  error
}

func memo[R any](m *memoFigures, key string, run func() (R, error)) (R, error) {
	m.mu.Lock()
	r, ok := m.results[key]
	if !ok {
		r = &memoResult{}
		m.results[key] = r
	}
	m.mu.Unlock()
	r.once.Do(func() { r.val, r.err = run() })
	return r.val.(R), r.err
}

func (m *memoFigures) Fig1Motivational() (*Fig1Result, error) {
	return memo(m, "fig1", m.Pipeline.Fig1Motivational)
}

func (m *memoFigures) Fig3GridSearch() (*Fig3Result, error) {
	return memo(m, "fig3", m.Pipeline.Fig3GridSearch)
}

func (m *memoFigures) Fig5MigrationOverhead() (*Fig5Result, error) {
	return memo(m, "fig5", m.Pipeline.Fig5MigrationOverhead)
}

func (m *memoFigures) Fig7Illustrative() (*Fig7Result, error) {
	return memo(m, "fig7", m.Pipeline.Fig7Illustrative)
}

func (m *memoFigures) Fig8Main(fan bool) (*Fig8Result, error) {
	return memo(m, fmt.Sprintf("fig8 fan=%v", fan), func() (*Fig8Result, error) {
		return m.Pipeline.Fig8Main(fan)
	})
}

func (m *memoFigures) Fig11SingleApp() (*Fig11Result, error) {
	return memo(m, "fig11", m.Pipeline.Fig11SingleApp)
}

func (m *memoFigures) Fig12Overhead() (*Fig12Result, error) {
	return memo(m, "fig12", m.Pipeline.Fig12Overhead)
}

func (m *memoFigures) ModelEvaluation() (*ModelEvalResult, error) {
	return memo(m, "modeleval", m.Pipeline.ModelEvaluation)
}

func (m *memoFigures) EnergyAnalysis() (*EnergyResult, error) {
	return memo(m, "energy", m.Pipeline.EnergyAnalysis)
}

func (m *memoFigures) DatasetAblations() ([]*AblationResult, error) {
	return memo(m, "dataset ablations", m.Pipeline.DatasetAblations)
}

func (m *memoFigures) AblationDVFSStep() (*AblationResult, error) {
	return memo(m, "dvfs ablation", m.Pipeline.AblationDVFSStep)
}

func TestFig1Motivational(t *testing.T) {
	p := pipeline(t)
	res, err := p.Fig1Motivational()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	// The paper's headline asymmetry: adi is big-optimal, seidel-2d
	// LITTLE-optimal in scenario 1.
	if got := res.Optimal("adi", 1); got != "big" {
		t.Errorf("adi scenario-1 optimum = %s, want big", got)
	}
	if got := res.Optimal("seidel-2d", 1); got != "LITTLE" {
		t.Errorf("seidel-2d scenario-1 optimum = %s, want LITTLE", got)
	}
	// Scenario 2: with background forcing both clusters to peak VF, the
	// big cluster's scenario-1 advantage for adi disappears (the paper's
	// point: per-cluster DVFS changes the optimal mapping).
	temp := func(scenario int, mapping string) float64 {
		for _, row := range res.Rows {
			if row.App == "adi" && row.Scenario == scenario && row.Mapping == mapping {
				return row.AvgTemp
			}
		}
		t.Fatalf("missing adi scenario-%d %s row", scenario, mapping)
		return 0
	}
	adv1 := temp(1, "LITTLE") - temp(1, "big") // positive: big wins alone
	adv2 := temp(2, "LITTLE") - temp(2, "big")
	if adv1 <= 0.5 {
		t.Errorf("scenario 1: big advantage = %.1f °C, want clearly positive", adv1)
	}
	if adv2 >= adv1/2 {
		t.Errorf("scenario 2: big advantage %.1f °C did not collapse (scenario 1: %.1f)",
			adv2, adv1)
	}
	if out := res.Render(); !strings.Contains(out, "adi") {
		t.Error("Render missing content")
	}
}

func TestFig3GridSearch(t *testing.T) {
	p := pipeline(t)
	res, err := p.Fig3GridSearch()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NAS.Candidates) != len(res.Dims.Depths)*len(res.Dims.Widths) {
		t.Fatalf("candidates = %d", len(res.NAS.Candidates))
	}
	if res.NAS.Best.ValLoss <= 0 {
		t.Errorf("best val loss = %g", res.NAS.Best.ValLoss)
	}
	if out := res.Render(); !strings.Contains(out, "best:") {
		t.Error("Render missing best line")
	}
}

func TestFig5MigrationOverhead(t *testing.T) {
	p := pipeline(t)
	res, err := p.Fig5MigrationOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	// Paper: worst case below ~4 %, average well below 1 %.
	if res.Maximum > 0.06 {
		t.Errorf("max migration overhead = %.1f %%, want < 6 %%", res.Maximum*100)
	}
	if res.Average > 0.02 {
		t.Errorf("avg migration overhead = %.2f %%, want < 2 %%", res.Average*100)
	}
	for _, row := range res.Rows {
		if row.Overhead < -0.05 {
			t.Errorf("%s: overhead %.2f %% implausibly negative", row.App, row.Overhead*100)
		}
	}
}

func TestFig7Illustrative(t *testing.T) {
	p := pipeline(t)
	res, err := p.Fig7Illustrative()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 4 {
		t.Fatalf("traces = %d, want 4", len(res.Traces))
	}
	find := func(app, tech string) Fig7Trace {
		for _, tr := range res.Traces {
			if tr.App == app && tr.Technique == tech {
				return tr
			}
		}
		t.Fatalf("missing trace %s/%s", app, tech)
		return Fig7Trace{}
	}
	// TOP-IL holds the optimal mapping nearly always.
	for _, app := range []string{"adi", "seidel-2d"} {
		il := find(app, "TOP-IL")
		if il.OptimalFrac < 0.85 {
			t.Errorf("TOP-IL on %s: optimal fraction %.2f, want >= 0.85", app, il.OptimalFrac)
		}
		if !il.QoSMet {
			t.Errorf("TOP-IL violated QoS on %s", app)
		}
	}
	// RL is less stable than IL overall (more migrations in total).
	ilMig := find("adi", "TOP-IL").Migrations + find("seidel-2d", "TOP-IL").Migrations
	rlMig := find("adi", "TOP-RL").Migrations + find("seidel-2d", "TOP-RL").Migrations
	if rlMig < ilMig {
		t.Errorf("RL migrations (%d) < IL (%d): RL should be less stable", rlMig, ilMig)
	}
}

func TestFig8MainShapes(t *testing.T) {
	p := pipeline(t)
	for _, fan := range []bool{true, false} {
		res, err := p.Fig8Main(fan)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != len(Techniques())*len(p.Scale.ArrivalRates) {
			t.Fatalf("cells = %d", len(res.Cells))
		}
		il := res.MeanTempOf("TOP-IL")
		ond := res.MeanTempOf("GTS/ondemand")
		psv := res.MeanTempOf("GTS/powersave")
		ilV := res.MeanViolationsOf("TOP-IL")
		psvV := res.MeanViolationsOf("GTS/powersave")
		rlV := res.MeanViolationsOf("TOP-RL")

		if il >= ond {
			t.Errorf("fan=%v: TOP-IL temp %.1f not below GTS/ondemand %.1f", fan, il, ond)
		}
		if psv >= ond {
			t.Errorf("fan=%v: powersave temp %.1f not below ondemand %.1f", fan, psv, ond)
		}
		if psvV <= ilV {
			t.Errorf("fan=%v: powersave violations %.1f not above TOP-IL %.1f", fan, psvV, ilV)
		}
		if rlV < ilV {
			t.Errorf("fan=%v: TOP-RL violations %.1f below TOP-IL %.1f", fan, rlV, ilV)
		}
		// Fig. 10 data present for every technique.
		for _, tech := range Techniques() {
			if _, ok := res.CPUTime[tech]; !ok {
				t.Errorf("missing CPU time for %s", tech)
			}
		}
		if !fan {
			out := res.RenderFig10()
			if !strings.Contains(out, "LITTLE") || !strings.Contains(out, "big") {
				t.Error("Fig10 render incomplete")
			}
		}
	}
}

func TestFig11SingleApp(t *testing.T) {
	p := pipeline(t)
	res, err := p.Fig11SingleApp()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8*len(Techniques()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	ilV, _ := res.TotalViolations("TOP-IL")
	psvV, psvN := res.TotalViolations("GTS/powersave")
	if ilV != 0 {
		t.Errorf("TOP-IL violating executions = %d, want 0", ilV)
	}
	if psvV < psvN/2 {
		t.Errorf("powersave violations %d/%d, want most runs violating", psvV, psvN)
	}
	if il, ond := res.MeanTempOf("TOP-IL"), res.MeanTempOf("GTS/ondemand"); il >= ond {
		t.Errorf("TOP-IL temp %.1f not below ondemand %.1f", il, ond)
	}
}

func TestFig12Overhead(t *testing.T) {
	p := pipeline(t)
	res, err := p.Fig12Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.DVFSMsPerCall <= first.DVFSMsPerCall {
		t.Error("DVFS per-invocation cost did not grow with apps")
	}
	if last.MigrationMsPerCall > first.MigrationMsPerCall*1.1 {
		t.Errorf("NPU migration cost grew: %.2f -> %.2f ms",
			first.MigrationMsPerCall, last.MigrationMsPerCall)
	}
	if last.CPUMigrationMsPerCall <= first.CPUMigrationMsPerCall {
		t.Error("CPU-backend migration cost should grow with apps")
	}
	// Paper's absolute calibration: ~0.54 ms DVFS, ~4.3 ms migration per
	// invocation at high app counts.
	if last.DVFSMsPerCall < 0.3 || last.DVFSMsPerCall > 1.0 {
		t.Errorf("DVFS per-invocation at 16 apps = %.2f ms, want ~0.54", last.DVFSMsPerCall)
	}
	if last.MigrationMsPerCall < 3 || last.MigrationMsPerCall > 6 {
		t.Errorf("migration per-invocation = %.2f ms, want ~4.3", last.MigrationMsPerCall)
	}
}

func TestModelEvaluation(t *testing.T) {
	p := pipeline(t)
	res, err := p.ModelEvaluation()
	if err != nil {
		t.Fatal(err)
	}
	if res.Examples == 0 {
		t.Fatal("no test examples")
	}
	// Paper: 82±5 % within 1 °C. At quick scale expect at least clearly
	// better than random (~50 % with two free cores).
	if res.WithinOneC.Mean < 0.55 {
		t.Errorf("held-out within-1°C = %.2f, want >= 0.55", res.WithinOneC.Mean)
	}
	if res.MeanExcess.Mean > 2.0 {
		t.Errorf("held-out mean excess = %.2f °C, want <= 2", res.MeanExcess.Mean)
	}
}

func TestAblations(t *testing.T) {
	p := pipeline(t)
	rs, err := p.DatasetAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("dataset ablations = %d, want 3", len(rs))
	}
	for _, r := range rs {
		if r.Default["within 1°C"] <= 0 || len(r.Variant) == 0 {
			t.Errorf("%s ablation: empty metrics", r.Name)
		}
	}
	dvfs, err := p.AblationDVFSStep()
	if err != nil {
		t.Fatal(err)
	}
	if dvfs.Default["avg temp"] <= 0 {
		t.Error("dvfs ablation: empty metrics")
	}
	for _, r := range append(rs, dvfs) {
		if !strings.Contains(r.Render(), "Ablation") {
			t.Error("ablation render malformed")
		}
	}
}

func TestEnergyAnalysis(t *testing.T) {
	p := pipeline(t)
	res, err := p.EnergyAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TotalJ.Mean <= 0 || row.Makespan.Mean <= 0 {
			t.Errorf("%s: degenerate energy metrics %+v", row.Technique, row)
		}
		if row.TotalJ.Mean <= row.LittleJ.Mean+row.BigJ.Mean-1 {
			t.Errorf("%s: total below cluster sum", row.Technique)
		}
	}
	// Ondemand finishes fastest (max VF race-to-idle).
	ond, _ := res.Row("GTS/ondemand")
	psv, _ := res.Row("GTS/powersave")
	if ond.Makespan.Mean >= psv.Makespan.Mean {
		t.Errorf("ondemand makespan %.0f not below powersave %.0f",
			ond.Makespan.Mean, psv.Makespan.Mean)
	}
	if !strings.Contains(res.Render(), "Energy analysis") {
		t.Error("render malformed")
	}
}
