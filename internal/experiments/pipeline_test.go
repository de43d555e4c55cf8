package experiments

import (
	"testing"

	"repro/internal/rl"
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

func TestPeakIPSHelpers(t *testing.T) {
	p := NewPipeline(QuickScale())
	spec, _ := workload.ByName("adi")
	peak := p.PeakIPS(spec)
	little := p.LittleMaxIPS(spec)
	if peak <= little {
		t.Errorf("big peak %g not above LITTLE max %g", peak, little)
	}
	mean := p.littleMaxMeanIPS(spec)
	if mean != little { // single-phase app: mean equals max
		t.Errorf("single-phase mean %g != max %g", mean, little)
	}
	phased, _ := workload.ByName("dedup")
	if m := p.littleMaxMeanIPS(phased); m >= p.LittleMaxIPS(phased) {
		t.Errorf("phased mean %g not below best-phase max %g", m, p.LittleMaxIPS(phased))
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
