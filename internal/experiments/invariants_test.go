package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/testkit"
	"repro/internal/workload"
)

// TestFigSuiteInvariants runs the testkit paper-invariant suite against
// every fig-suite scenario class: each evaluation technique under both
// cooling modes, driving the mixed open-system workload. Unlike the figure
// tests this runs in -short mode too (it is part of every `make check`):
// it uses untrained models and fresh Q-tables, because the invariants —
// bounded temperatures, clamped VF levels, consistent accounting — must
// hold for any policy, not just well-trained ones.
func TestFigSuiteInvariants(t *testing.T) {
	p := NewPipeline(QuickScale())
	plat := p.plat
	dim := features.Dim(plat.NumCores(), plat.NumClusters())

	techniques := append(Techniques(), "GTS/performance")
	type scenario struct {
		technique string
		fan       bool
	}
	var scns []scenario
	for _, tech := range techniques {
		for _, fan := range []bool{true, false} {
			scns = append(scns, scenario{tech, fan})
		}
	}

	// Managers are built per scenario (policies are stateful); the model
	// and Q-table artifacts are untrained stand-ins seeded per scenario.
	manager := func(s scenario, seed int64) (sim.Manager, error) {
		switch s.technique {
		case "TOP-IL":
			m := nn.NewMLP(nn.PaperTopology(dim, plat.NumCores()), seed)
			return core.New(npu.New(m), core.DefaultConfig()), nil
		case "TOP-RL":
			return rl.New(rl.NewQTable(plat.NumCores()), rl.DefaultParams(), seed), nil
		default:
			return p.Manager(s.technique, 0)
		}
	}

	errs := testkit.MapOrdered(4, scns, func(i int, s scenario) error {
		seed := int64(i + 1)
		mgr, err := manager(s, seed)
		if err != nil {
			return err
		}
		gen := workload.NewGenerator(seed, workload.MixedPool(), p.PeakIPS, 0.2, 0.6, 0.02)
		cfg := sim.DefaultConfig(s.fan, p.Scale.TAmb)
		cfg.Seed = seed
		_, err = testkit.RunChecked(testkit.CheckedRun{
			Cfg:      cfg,
			Jobs:     gen.Generate(6, 0.5),
			Manager:  mgr,
			Duration: 8,
		})
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s fan=%v: %v", scns[i].technique, scns[i].fan, err)
		}
	}
}
