package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/rl"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func TestScalesWellFormed(t *testing.T) {
	for _, s := range []Scale{FullScale(), QuickScale()} {
		if len(s.Seeds) == 0 {
			t.Errorf("%s: no seeds", s.Name)
		}
		if s.MixedJobs <= 0 || len(s.ArrivalRates) == 0 || s.RunCap <= 0 ||
			s.InstrScale <= 0 {
			t.Errorf("%s: degenerate run-time parameters: %+v", s.Name, s)
		}
		if len(s.OracleCfg.LevelGrid) == 0 || len(s.OracleCfg.QoSFracs) == 0 {
			t.Errorf("%s: degenerate oracle config", s.Name)
		}
	}
	if FullScale().OracleScenarios != 100 {
		t.Errorf("full scale scenarios = %d, want the paper's 100", FullScale().OracleScenarios)
	}
	if len(FullScale().Seeds) != 3 {
		t.Errorf("full scale seeds = %d, want the paper's 3", len(FullScale().Seeds))
	}
}

func TestTechniquesOrder(t *testing.T) {
	ts := Techniques()
	if len(ts) != 4 || ts[0] != "TOP-IL" || ts[1] != "TOP-RL" {
		t.Errorf("techniques = %v", ts)
	}
}

func TestGovernorManagerUnknown(t *testing.T) {
	p := NewPipeline(QuickScale())
	if _, err := p.Manager("cpufreq/voodoo", 0); err == nil {
		t.Error("unknown technique accepted")
	}
	for _, name := range []string{"GTS/ondemand", "GTS/powersave", "GTS/performance"} {
		m, err := p.Manager(name, 0)
		if err != nil || m.Name() != name {
			t.Errorf("Manager(%q) = %v, %v", name, m, err)
		}
	}
}

func TestManagerUnknownTechnique(t *testing.T) {
	p := NewPipeline(QuickScale())
	if _, err := p.Manager("nonsense", 0); err == nil {
		t.Error("unknown technique accepted by pipeline")
	}
}

// littleMaxIPS returns the application's IPS alone on a LITTLE core at the
// cluster's top VF level (Fig. 11 sets QoS targets below this).
func (p *Pipeline) littleMaxIPS(spec workload.AppSpec) float64 {
	little, _ := p.plat.ClusterByKind(platform.Little)
	best := 0.0
	for _, ph := range spec.Phases {
		if v := p.perf.IPS(ph, platform.Little, little.MaxFreq(), 1); v > best {
			best = v
		}
	}
	return best
}

func TestPeakIPSHelpers(t *testing.T) {
	p := NewPipeline(QuickScale())
	spec, _ := workload.ByName("adi")
	peak := p.PeakIPS(spec)
	little := p.littleMaxIPS(spec)
	if peak <= little {
		t.Errorf("big peak %g not above LITTLE max %g", peak, little)
	}
	mean := p.littleMaxMeanIPS(spec)
	if mean != little { // single-phase app: mean equals max
		t.Errorf("single-phase mean %g != max %g", mean, little)
	}
	phased, _ := workload.ByName("dedup")
	if m := p.littleMaxMeanIPS(phased); m >= p.littleMaxIPS(phased) {
		t.Errorf("phased mean %g not below best-phase max %g", m, p.littleMaxIPS(phased))
	}
}

func TestCloneQTableIsolation(t *testing.T) {
	orig := rl.NewQTable(8)
	clone := cloneQTable(orig)
	clone.Q[0][0] = 99
	if orig.Q[0][0] == 99 {
		t.Error("cloneQTable shares storage")
	}
}

// TestModelsTrainedOnce pins that Models is the only place the pipeline's
// models train: ModelEvaluation and DatasetAblations record no run-matrix
// cells but one models cell per seed and one ablation cell per dataset
// variant. The models are byte-identical whether their seeds train one at
// a time or in parallel. The test is not -short-gated, so the race pass
// runs the parallel Models path.
func TestModelsTrainedOnce(t *testing.T) {
	s := miniScale()
	s.Seeds = []int64{1, 2, 3}
	s.TrainCfg.MaxEpochs = 2

	seq := NewPipeline(s)
	seq.Workers = 1
	seq.Telemetry = telemetry.NewRegistry()
	if _, err := seq.ModelEvaluation(); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.DatasetAblations(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := seq.Telemetry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var cells []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "experiments_cell_seconds_count{") {
			cells = append(cells, line)
		}
	}
	want := []string{
		fmt.Sprintf(`experiments_cell_seconds_count{matrix="ablation"} %d`, len(datasetVariants)),
		fmt.Sprintf(`experiments_cell_seconds_count{matrix="models"} %d`, len(s.Seeds)),
	}
	if slices.Sort(cells); !slices.Equal(cells, want) {
		t.Errorf("run-matrix cells %q, want %q", cells, want)
	}

	d, err := seq.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	// models trains on the sequential pipeline's oracle dataset, without a
	// second search, and returns the models' JSON.
	models := func(workers int, seeds ...int64) [][]byte {
		sc := s
		sc.Seeds = seeds
		p := NewPipeline(sc)
		p.Workers = workers
		p.dataset = d
		ms, err := p.Models()
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, m := range ms {
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	seqModels := models(1, s.Seeds...)
	if !slices.EqualFunc(seqModels, models(4, s.Seeds...), bytes.Equal) {
		t.Error("models trained at 4 workers differ from those trained at 1")
	}
	if !bytes.Equal(seqModels[2], models(1, s.Seeds[2])[0]) {
		t.Errorf("Models()[2] is not seed %d's model", s.Seeds[2])
	}
}
