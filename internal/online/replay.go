package online

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ReplayMetrics summarize one candidate evaluation over the replay window:
// the quantities the promotion gate compares.
type ReplayMetrics struct {
	// ViolationFrac is the fraction of applications that missed their QoS
	// target over the replay window.
	ViolationFrac float64 `json:"violationFrac"`
	// PeakTemp is the peak sensor temperature reached (°C).
	PeakTemp float64 `json:"peakTemp"`
}

// ReplayFunc scores a model over a deterministic replay window. The same
// seed must yield the same metrics for the same model — the gate compares
// candidate and incumbent under identical conditions.
type ReplayFunc func(m *nn.MLP, seed int64) (ReplayMetrics, error)

// SimReplay returns a ReplayFunc that runs the model as TOP-IL's backend
// over a seeded mixed workload for `duration` simulated seconds with
// `apps` concurrent applications, and reports the resulting QoS violation
// fraction and peak temperature. Deterministic per (model, seed).
func SimReplay(duration float64, apps int) ReplayFunc {
	if duration <= 0 {
		duration = 20
	}
	if apps <= 0 {
		apps = 2
	}
	return func(m *nn.MLP, seed int64) (rm ReplayMetrics, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("online: replay panicked: %v", p)
			}
		}()
		if m == nil {
			return ReplayMetrics{}, fmt.Errorf("online: replaying nil model")
		}
		sc := sim.DefaultConfig(true, 25)
		e := sim.New(sc)
		pm := perf.Default()
		pool := workload.MixedPool()
		n := int64(len(pool))
		for i := 0; i < apps; i++ {
			idx := ((seed+int64(i))%n + n) % n
			spec, ok := workload.ByName(pool[idx])
			if !ok {
				return ReplayMetrics{}, fmt.Errorf("online: unknown replay benchmark")
			}
			spec.TotalInstr = 1e18
			e.AddJob(workload.Job{Spec: spec, QoS: 0.3 * pm.PeakIPS(sc.Platform, spec)})
		}
		mgr := core.New(npu.New(m), core.DefaultConfig())
		res := e.Run(mgr, duration)
		if len(res.Apps) == 0 {
			return ReplayMetrics{}, fmt.Errorf("online: replay admitted no applications")
		}
		return ReplayMetrics{
			ViolationFrac: res.ViolationFrac(),
			PeakTemp:      res.PeakTemp,
		}, nil
	}
}
