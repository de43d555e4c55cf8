package testkit_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/testkit"
	"repro/internal/thermal"
)

// kernelScenarios builds the fig-style differential set with the given
// thermal kernel: the paper's policy spread (throughput governor, powersave
// governor, TOP-IL) over seeded workloads, fan on and off. Each call builds
// fresh configs — sim.DefaultConfig allocates a fresh thermal network, so
// the two sides of a differential never share kernel state.
func kernelScenarios(kernel thermal.Kernel) []testkit.Scenario {
	withKernel := func(fan bool) sim.Config {
		cfg := sim.DefaultConfig(fan, 25)
		cfg.Thermal.SetKernel(kernel)
		return cfg
	}
	topil := func(seed int64) func() sim.Manager {
		return func() sim.Manager {
			return core.New(npu.New(testModel(seed)), core.DefaultConfig())
		}
	}
	return []testkit.Scenario{
		{
			Name: "kernel-gts-ondemand-fan", Cfg: withKernel(true), Jobs: testJobs(11, 8),
			NewManager: func() sim.Manager { return governor.NewGTS(governor.Ondemand{UpThreshold: 0.8}) },
			Duration:   4,
		},
		{
			Name: "kernel-gts-powersave-fan", Cfg: withKernel(true), Jobs: testJobs(12, 8),
			NewManager: func() sim.Manager { return governor.NewGTS(governor.Powersave{}) },
			Duration:   4,
		},
		{
			Name: "kernel-topil-fan", Cfg: withKernel(true), Jobs: testJobs(13, 8),
			NewManager: topil(7), Duration: 4,
		},
		{
			Name: "kernel-gts-ondemand-nofan", Cfg: withKernel(false), Jobs: testJobs(14, 8),
			NewManager: func() sim.Manager { return governor.NewGTS(governor.Ondemand{UpThreshold: 0.8}) },
			Duration:   4,
		},
		{
			Name: "kernel-topil-nofan", Cfg: withKernel(false), Jobs: testJobs(15, 8),
			NewManager: topil(8), Duration: 4,
		},
	}
}

// TestKernelDifferentialFloat64 is the gate for the propagator rewrite: the
// precomputed float64 kernel must reproduce the retained naive Euler
// reference byte for byte over the full scenario spread — and do so through
// the worker pool at -j1 and -j8, so neither the kernel nor its per-network
// caching leaks scheduling into results.
func TestKernelDifferentialFloat64(t *testing.T) {
	for _, workers := range []int{1, 8} {
		prop := testkit.MapOrdered(workers, kernelScenarios(thermal.KernelPropagator),
			func(_ int, s testkit.Scenario) string { return testkit.TraceScenario(s) })
		ref := testkit.MapOrdered(workers, kernelScenarios(thermal.KernelReference),
			func(_ int, s testkit.Scenario) string { return testkit.TraceScenario(s) })
		names := kernelScenarios(thermal.KernelPropagator)
		for i := range names {
			if err := testkit.DiffTraces(prop[i], ref[i], 0); err != nil {
				t.Errorf("-j%d %s: propagator vs reference kernel diverge: %v",
					workers, names[i].Name, err)
			}
			if strings.Count(prop[i], "\n") < 5 {
				t.Errorf("%s: suspiciously short trace:\n%s", names[i].Name, prop[i])
			}
		}
	}
}
