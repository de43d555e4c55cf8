package testkit

import (
	"fmt"
	"math"

	"repro/internal/features"
	"repro/internal/platform"
	"repro/internal/sim"
)

// CheckContext is the state handed to a Check: the run's configuration
// (whose Thermal network is the live engine network), the policy-facing
// environment, and — for Final checks only — the finished Result.
type CheckContext struct {
	Cfg    sim.Config
	Env    *sim.Env
	Result *sim.Result // nil during per-tick checks
}

// Check is one reusable invariant. Tick runs periodically during a
// simulation (nil = final-only), Final runs once on the Result (nil =
// tick-only). Check instances may be stateful (closures tracking history),
// so obtain a fresh suite from InvariantChecks per run.
type Check struct {
	Name string
	Doc  string

	Tick  func(*CheckContext) error
	Final func(*CheckContext) error
}

// noiseSlackC returns the sensor-reading tolerance in °C implied by the
// configured sensor noise: six standard deviations plus a small epsilon.
func noiseSlackC(cfg sim.Config) float64 {
	return 6*cfg.SensorNoise + 1e-6
}

// InvariantChecks returns a fresh instance of the paper-invariant suite.
// Every check encodes a property the paper's claims rest on; the suite is
// run against the fig-suite scenarios (internal/experiments) and against
// adversarial chaos runs, where "the happy path holds" is not evidence.
func InvariantChecks() []Check {
	return []Check{
		tempBounded(),
		freqLadder(),
		mappingPartition(),
		sensorTracksNetwork(),
		progressSane(),
		energyAccounting(),
		utilBounded(),
		throttleBounded(),
		violationsConsistent(),
		qosMonotoneVF(),
		permutationEquivariant(),
	}
}

// tempBounded: temperatures stay finite, above ambient (cooling can never
// push a passive die below its environment) and below silicon limits.
func tempBounded() Check {
	const meltC = 200.0
	return Check{
		Name: "temp-bounded",
		Doc:  "sensor and network temperatures are finite, >= ambient, < 200 °C",
		Tick: func(c *CheckContext) error {
			slack := noiseSlackC(c.Cfg)
			t := c.Env.Temp()
			if math.IsNaN(t) || math.IsInf(t, 0) {
				return fmt.Errorf("sensor temperature %v not finite", t)
			}
			if t < c.Cfg.Thermal.TAmb-slack || t > meltC+slack {
				return fmt.Errorf("sensor %.2f °C outside [ambient %.2f, %.0f]",
					t, c.Cfg.Thermal.TAmb, meltC)
			}
			for i := range c.Cfg.Thermal.Nodes {
				v := c.Cfg.Thermal.Temp(i)
				if math.IsNaN(v) || v < c.Cfg.Thermal.TAmb-1e-6 || v > meltC {
					return fmt.Errorf("node %d at %.2f °C outside [ambient %.2f, %.0f]",
						i, v, c.Cfg.Thermal.TAmb, meltC)
				}
			}
			return nil
		},
		Final: func(c *CheckContext) error {
			r := c.Result
			if math.IsNaN(r.AvgTemp) || math.IsNaN(r.PeakTemp) {
				return fmt.Errorf("NaN result temperatures")
			}
			if r.Duration > 0 && r.PeakTemp < r.AvgTemp-1e-9 {
				return fmt.Errorf("peak %.3f °C below average %.3f °C", r.PeakTemp, r.AvgTemp)
			}
			return nil
		},
	}
}

// freqLadder: the per-cluster requested VF level never leaves the OPP
// table, no matter what a (possibly chaotic) manager requested.
func freqLadder() Check {
	return Check{
		Name: "freq-ladder",
		Doc:  "per-cluster requested VF level stays inside the OPP table",
		Tick: func(c *CheckContext) error {
			for ci, cl := range c.Env.Platform().Clusters {
				idx := c.Env.ClusterFreqIndex(ci)
				if idx < 0 || idx >= cl.NumOPPs() {
					return fmt.Errorf("cluster %d at VF level %d, ladder [0,%d)",
						ci, idx, cl.NumOPPs())
				}
				f := c.Env.ClusterFreq(ci)
				if f < cl.MinFreq()-1 || f > cl.MaxFreq()+1 {
					return fmt.Errorf("cluster %d at %.0f Hz outside [%.0f, %.0f]",
						ci, f, cl.MinFreq(), cl.MaxFreq())
				}
			}
			return nil
		},
	}
}

// mappingPartition: every running application is mapped to exactly one
// core, and the per-core occupancy lists agree with the per-app view —
// migrations must never duplicate or lose an application.
func mappingPartition() Check {
	return Check{
		Name: "mapping-partition",
		Doc:  "running applications partition across cores (no loss, no duplication)",
		Tick: func(c *CheckContext) error {
			apps := c.Env.Apps()
			fromApps := map[sim.AppID]int{}
			for _, a := range apps {
				if _, dup := fromApps[a.ID]; dup {
					return fmt.Errorf("app %d appears twice in Apps()", a.ID)
				}
				fromApps[a.ID] = int(a.Core)
			}
			seen := 0
			for ci := 0; ci < c.Env.Platform().NumCores(); ci++ {
				for _, id := range c.Env.AppsOnCore(platform.CoreID(ci)) {
					core, ok := fromApps[id]
					if !ok {
						return fmt.Errorf("core %d lists unknown app %d", ci, id)
					}
					if core != ci {
						return fmt.Errorf("app %d on core list %d but reports core %d", id, ci, core)
					}
					seen++
				}
			}
			if seen != len(apps) {
				return fmt.Errorf("core lists hold %d apps, Apps() reports %d", seen, len(apps))
			}
			return nil
		},
	}
}

// sensorTracksNetwork: the sensor reading is the network's hottest node
// modulo configured noise — it cannot invent temperatures. The sample is
// up to one sensor period stale, so the upper bound is the larger of the
// current and previously observed network maxima plus a small transient
// slack (the check is stateful; skip the first observation, which has no
// history to bound staleness against).
func sensorTracksNetwork() Check {
	prevMax := 0.0
	first := true
	return Check{
		Name: "sensor-tracks-network",
		Doc:  "the 20 Hz sensor reading stays within noise slack of the network's hottest node",
		Tick: func(c *CheckContext) error {
			slack := noiseSlackC(c.Cfg) + 0.5
			max := c.Cfg.Thermal.Max()
			bound := max
			if !first && prevMax > bound {
				bound = prevMax
			}
			skip := first
			prevMax, first = max, false
			t := c.Env.Temp()
			if t < c.Cfg.Thermal.TAmb-slack {
				return fmt.Errorf("sensor %.2f °C below ambient %.2f °C - %.2f",
					t, c.Cfg.Thermal.TAmb, slack)
			}
			if !skip && t > bound+slack {
				return fmt.Errorf("sensor %.2f °C above network maximum %.2f °C + %.2f",
					t, bound, slack)
			}
			return nil
		},
	}
}

// progressSane: per-application observables are finite and non-negative,
// and an application's lifetime never runs backwards. Stateful.
func progressSane() Check {
	lastSince := map[sim.AppID]float64{}
	return Check{
		Name: "progress-sane",
		Doc:  "per-app IPS/L2DPS finite and >= 0; lifetimes monotone",
		Tick: func(c *CheckContext) error {
			for _, a := range c.Env.Apps() {
				if a.IPS < 0 || math.IsNaN(a.IPS) || a.L2DPS < 0 || math.IsNaN(a.L2DPS) {
					return fmt.Errorf("app %d (%s): IPS %g L2DPS %g", a.ID, a.Name, a.IPS, a.L2DPS)
				}
				if prev, ok := lastSince[a.ID]; ok && a.SinceStart < prev-1e-9 {
					return fmt.Errorf("app %d lifetime went backwards: %g -> %g",
						a.ID, prev, a.SinceStart)
				}
				lastSince[a.ID] = a.SinceStart
			}
			return nil
		},
		Final: func(c *CheckContext) error {
			for _, a := range c.Result.Apps {
				if a.MeanIPS < 0 || math.IsNaN(a.MeanIPS) {
					return fmt.Errorf("app %s: mean IPS %g", a.Name, a.MeanIPS)
				}
				if a.ActiveSecs < 0 {
					return fmt.Errorf("app %s: negative active time %g s", a.Name, a.ActiveSecs)
				}
			}
			return nil
		},
	}
}

// energyAccounting: energy is non-negative, includes the always-on uncore
// floor, and busy core-time never exceeds platform capacity.
func energyAccounting() Check {
	return Check{
		Name: "energy-accounting",
		Doc:  "energy >= uncore floor, per-cluster energies >= 0, CPU time <= capacity",
		Final: func(c *CheckContext) error {
			r := c.Result
			for ci, e := range r.EnergyJ {
				if e < 0 || math.IsNaN(e) {
					return fmt.Errorf("cluster %d energy %g J", ci, e)
				}
			}
			if r.UncoreEnergyJ < 0 {
				return fmt.Errorf("uncore energy %g J", r.UncoreEnergyJ)
			}
			floor := c.Cfg.Power.Uncore * r.Duration
			if r.TotalEnergyJ() < floor-1e-6 {
				return fmt.Errorf("total energy %.6f J below uncore floor %.6f J",
					r.TotalEnergyJ(), floor)
			}
			cap := r.Duration*float64(c.Env.Platform().NumCores()) + 1e-6
			if got := r.TotalCPUTime(); got > cap {
				return fmt.Errorf("busy core-time %.6f s exceeds capacity %.6f s", got, cap)
			}
			for _, lv := range r.CPUTime {
				for _, v := range lv {
					if v < 0 {
						return fmt.Errorf("negative CPU-time bucket %g s", v)
					}
				}
			}
			return nil
		},
	}
}

// utilBounded: utilization is a fraction of cores.
func utilBounded() Check {
	return Check{
		Name: "util-bounded",
		Doc:  "0 <= AvgUtil <= PeakUtil <= 1",
		Final: func(c *CheckContext) error {
			r := c.Result
			if r.AvgUtil < 0 || r.PeakUtil > 1+1e-9 || r.AvgUtil > r.PeakUtil+1e-9 {
				return fmt.Errorf("utilization out of order: avg %g peak %g", r.AvgUtil, r.PeakUtil)
			}
			return nil
		},
	}
}

// throttleBounded: DTM cannot throttle for longer than the run (plus one
// DTM period of bookkeeping granularity).
func throttleBounded() Check {
	return Check{
		Name: "throttle-bounded",
		Doc:  "0 <= ThrottleSeconds <= Duration + one DTM period",
		Final: func(c *CheckContext) error {
			r := c.Result
			if r.ThrottleSeconds < 0 || r.ThrottleSeconds > r.Duration+c.Cfg.DTM.Period+1e-9 {
				return fmt.Errorf("throttle time %g s over a %g s run", r.ThrottleSeconds, r.Duration)
			}
			if r.OverheadSeconds < 0 || r.OverheadSeconds > r.Duration+1e-9 {
				return fmt.Errorf("overhead %g s over a %g s run", r.OverheadSeconds, r.Duration)
			}
			return nil
		},
	}
}

// violationsConsistent: the violation counter equals the per-app flags.
func violationsConsistent() Check {
	return Check{
		Name: "violations-consistent",
		Doc:  "Result.Violations recounts Apps[].Violated; ViolationFrac in [0,1]",
		Final: func(c *CheckContext) error {
			r := c.Result
			n := 0
			for _, a := range r.Apps {
				if a.Violated {
					n++
				}
			}
			if n != r.Violations {
				return fmt.Errorf("violations %d, per-app flags count %d", r.Violations, n)
			}
			if f := r.ViolationFrac(); f < 0 || f > 1 {
				return fmt.Errorf("violation fraction %g", f)
			}
			return nil
		},
	}
}

// qosMonotoneVF: raising a QoS target never lowers the VF step chosen by
// the Eq. 1 frequency estimator the DVFS loop is built on — the
// metamorphic property behind "the 50 ms loop converges to the minimum
// satisfying level". Checked against the platform's real OPP tables over
// a deterministic grid of operating points.
func qosMonotoneVF() Check {
	return Check{
		Name: "qos-monotone-vf",
		Doc:  "Eq. 1: the estimated minimum VF step is monotone in the QoS target",
		Final: func(c *CheckContext) error {
			for ci, cl := range c.Env.Platform().Clusters {
				freqs := make([]float64, cl.NumOPPs())
				for i := range freqs {
					freqs[i] = cl.FreqAt(i)
				}
				for _, fCur := range []float64{freqs[0], freqs[len(freqs)/2], freqs[len(freqs)-1]} {
					for _, ips := range []float64{2e8, 8e8, 2e9} {
						prev := -1.0
						for frac := 0.05; frac <= 2.0; frac += 0.05 {
							target := frac * ips
							f, _ := features.EstimateMinFreq(freqs, fCur, ips, target)
							if f < prev {
								return fmt.Errorf(
									"cluster %d: raising QoS to %.3g IPS lowered the VF estimate %.0f -> %.0f Hz (fCur %.0f, ips %.3g)",
									ci, target, prev, f, fCur, ips)
							}
							prev = f
						}
					}
				}
			}
			return nil
		},
	}
}

// featureRows builds the feature matrix the daemon sends to the NPU: one
// row per running application, each application as the AoI once.
func featureRows(s features.Snapshot) [][]float64 {
	var b features.Batch
	b.Reset(s)
	out := make([][]float64, b.Len())
	for i := range out {
		out[i] = make([]float64, features.Dim(s.NumCores, len(s.Clusters)))
		b.VectorInto(out[i], i)
	}
	return out
}

// permutationEquivariant: the migration model's feature rows depend only
// on which applications run where, not on AoI enumeration order — so
// permuting the AoI ordering permutes the batch rows exactly. Verified on
// the live snapshot whenever at least two applications run.
func permutationEquivariant() Check {
	return Check{
		Name: "permutation-equivariant",
		Doc:  "feature batch rows are equivariant under AoI reordering",
		Tick: func(c *CheckContext) error {
			s := features.FromEnv(c.Env)
			if len(s.Apps) < 2 {
				return nil
			}
			base := featureRows(s)
			// Deterministic rotation: app i takes slot (i+1) mod n.
			perm := s
			perm.Apps = make([]features.AppState, len(s.Apps))
			n := len(s.Apps)
			for i, a := range s.Apps {
				perm.Apps[(i+1)%n] = a
			}
			rot := featureRows(perm)
			for i := range s.Apps {
				want, got := base[i], rot[(i+1)%n]
				if len(want) != len(got) {
					return fmt.Errorf("row %d: dim %d vs %d after permutation", i, len(want), len(got))
				}
				for k := range want {
					if want[k] != got[k] {
						return fmt.Errorf("row %d feature %d: %g != %g after AoI reordering",
							i, k, want[k], got[k])
					}
				}
			}
			return nil
		},
	}
}
