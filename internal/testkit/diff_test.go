package testkit_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/npu"
	"repro/internal/sim"
	"repro/internal/testkit"
)

// diffScenarios builds the differential scenario set: the paper's policies
// over one seeded workload each.
func diffScenarios() []testkit.Scenario {
	topil := func(seed int64) func() sim.Manager {
		return func() sim.Manager {
			return core.New(npu.New(testModel(seed)), core.DefaultConfig())
		}
	}
	return []testkit.Scenario{
		{
			Name: "gts-ondemand", Cfg: sim.DefaultConfig(false, 25), Jobs: testJobs(1, 8),
			NewManager: func() sim.Manager { return governor.NewGTS(governor.Ondemand{UpThreshold: 0.8}) },
			Duration:   4,
		},
		{
			Name: "gts-powersave", Cfg: sim.DefaultConfig(true, 25), Jobs: testJobs(2, 8),
			NewManager: func() sim.Manager { return governor.NewGTS(governor.Powersave{}) },
			Duration:   4,
		},
		{
			Name: "topil-npu", Cfg: sim.DefaultConfig(false, 25), Jobs: testJobs(3, 8),
			NewManager: topil(7), Duration: 4,
		},
	}
}

func TestTraceReplayByteIdentical(t *testing.T) {
	for _, s := range diffScenarios() {
		a, b := testkit.TraceScenario(s), testkit.TraceScenario(s)
		if err := testkit.DiffTraces(a, b, 0); err != nil {
			t.Errorf("%s: two runs of the same scenario diverge: %v", s.Name, err)
		}
		if strings.Count(a, "\n") < 5 {
			t.Errorf("%s: suspiciously short trace:\n%s", s.Name, a)
		}
	}
}

// TestWorkersDifferential replays the scenario set through the ordered
// worker pool at -j1 and -j8 and demands byte-identical traces: worker
// scheduling must never leak into results.
func TestWorkersDifferential(t *testing.T) {
	scenarios := diffScenarios()
	run := func(workers int) []string {
		return testkit.MapOrdered(workers, scenarios, func(_ int, s testkit.Scenario) string {
			return testkit.TraceScenario(s)
		})
	}
	j1, j8 := run(1), run(8)
	for i, s := range scenarios {
		if err := testkit.DiffTraces(j1[i], j8[i], 0); err != nil {
			t.Errorf("%s: -j1 vs -j8 traces diverge: %v", s.Name, err)
		}
	}
}

// TestBackendDifferential replays one TOP-IL scenario through the NPU and
// CPU inference backends. Both compute bit-identical outputs from the same
// model; with overhead accounting disabled, the only remaining difference
// is the latency model, which then must not influence the simulation.
func TestBackendDifferential(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ChargeOverhead = false // latency models differ; dynamics must not
	scen := func(backend func() npu.Backend) testkit.Scenario {
		return testkit.Scenario{
			Name: "topil-backend-diff", Cfg: sim.DefaultConfig(false, 25), Jobs: testJobs(4, 8),
			NewManager: func() sim.Manager { return core.New(backend(), cfg) },
			Duration:   4,
		}
	}
	a := testkit.TraceScenario(scen(func() npu.Backend { return npu.New(testModel(9)) }))
	b := testkit.TraceScenario(scen(func() npu.Backend { return npu.NewCPU(testModel(9)) }))
	if err := testkit.DiffTraces(a, b, 0); err != nil {
		t.Errorf("CPU and NPU backends diverge: %v", err)
	}
}

// TestFP16Differential replays TOP-IL with the fp32 model and its
// fp16-quantized deployment and compares traces within FP16Tol — plus the
// direct output-deviation bound on feature-like probes.
func TestFP16Differential(t *testing.T) {
	model := testModel(9)

	probes := make([][]float64, 32)
	dim := model.Sizes()[0]
	for i := range probes {
		probes[i] = make([]float64, dim)
		for k := range probes[i] {
			probes[i][k] = float64((i*31+k*17)%97) / 97
		}
	}
	// Per-output deviations accumulate one rounding per layer, so the
	// bound is a small multiple of FP16Tol — and must stay far below the
	// migration hysteresis for quantization to never flip a decision.
	outTol := core.DefaultConfig().Hysteresis / 10
	maxDiff, err := testkit.ValidateQuantized(model, probes, outTol)
	if err != nil {
		t.Fatalf("fp16 deviation above tolerance: %v", err)
	}
	t.Logf("max fp16 output deviation: %g (tol %g)", maxDiff, outTol)

	cfg := core.DefaultConfig()
	cfg.ChargeOverhead = false
	scen := func(m func() npu.Backend) testkit.Scenario {
		return testkit.Scenario{
			Name: "topil-fp16-diff", Cfg: sim.DefaultConfig(false, 25), Jobs: testJobs(5, 8),
			NewManager: func() sim.Manager { return core.New(m(), cfg) },
			Duration:   4,
		}
	}
	a := testkit.TraceScenario(scen(func() npu.Backend { return npu.New(model) }))
	b := testkit.TraceScenario(scen(func() npu.Backend { return npu.New(npu.QuantizeFP16(model)) }))
	if err := testkit.DiffTraces(a, b, testkit.FP16Tol); err != nil {
		t.Errorf("fp16 deployment diverges beyond tolerance: %v", err)
	}
}

func TestDiffTracesTolerance(t *testing.T) {
	a := "t=0.250 temp=31.5 busy=2 freq=3,1 adi@4 ips=1.5e9\n"
	if err := testkit.DiffTraces(a, a, 0); err != nil {
		t.Errorf("identical traces reported as diverging: %v", err)
	}

	b := strings.Replace(a, "temp=31.5", "temp=31.501", 1)
	if err := testkit.DiffTraces(a, b, 0); err == nil {
		t.Error("byte mode missed a numeric difference")
	}
	if err := testkit.DiffTraces(a, b, testkit.FP16Tol); err != nil {
		t.Errorf("in-tolerance numeric difference rejected: %v", err)
	}
	big := strings.Replace(a, "temp=31.5", "temp=39.9", 1)
	if err := testkit.DiffTraces(a, big, testkit.FP16Tol); err == nil {
		t.Error("out-of-tolerance numeric difference accepted")
	}

	structural := strings.Replace(a, "adi@4", "adi@5", 1)
	if err := testkit.DiffTraces(a, structural, 1e9); err == nil {
		t.Error("structural (mapping) difference excused by numeric tolerance")
	}
	freq := strings.Replace(a, "freq=3,1", "freq=3,2", 1)
	if err := testkit.DiffTraces(a, freq, 1e9); err == nil {
		t.Error("VF-level difference excused by numeric tolerance")
	}
	if err := testkit.DiffTraces(a, a+"extra\n", testkit.FP16Tol); err == nil {
		t.Error("length difference accepted")
	}
}
