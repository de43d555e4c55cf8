package oracle

import (
	"math"
	"testing"

	"repro/internal/features"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestTrainRuntimeFeatureConsistency verifies the IL premise that the
// design-time feature distribution matches what the run-time daemon
// observes: reconstruct one oracle trace configuration live (same AoI,
// background, mapping and VF levels) and compare the live feature vector
// against the trace-derived one.
func TestTrainRuntimeFeatureConsistency(t *testing.T) {
	cfg := quickCfg()
	scn := paperScenario(t, "adi")
	ts, err := CollectTraces(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Configuration: AoI on core 3, both clusters at the top grid level.
	li, bi := len(ts.Grid)-1, len(ts.Grid)-1
	pt, err := ts.Point(3, li, bi)
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.HiKey970()
	level := ts.Grid[li]

	// Trace-derived features for a target met by this configuration.
	target := 0.9 * pt.AoIIPS
	occ := make([]float64, 8)
	for _, b := range scn.Background {
		occ[b.Core] = 1
	}
	little, big := plat.Clusters[0], plat.Clusters[1]
	oracleVec := features.Assemble(pt.AoIIPS, pt.AoIL2DPS, 3, 8, target,
		[]float64{little.FreqAt(ts.Grid[0]) / little.FreqAt(level),
			big.FreqAt(ts.Grid[0]) / big.FreqAt(level)},
		occ)

	// Live reconstruction: background with negligible QoS targets (so
	// their f̃ estimates resolve to the lowest level, matching the lowest
	// tilde sweep), AoI pinned to core 3, clusters pinned to `level`.
	sc := sim.DefaultConfig(cfg.Fan, cfg.TAmb)
	sc.Dt = cfg.Dt
	e := sim.New(sc)
	mgr := &consistencyPin{level: level}
	for _, b := range scn.Background {
		mgr.placements = append(mgr.placements, b.Core)
		spec := b.Spec
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 1}) // trivially met → f̃ = min
	}
	mgr.placements = append(mgr.placements, 3)
	aoi := scn.AoI
	aoi.TotalInstr = 1e18
	e.AddJob(workload.Job{Spec: aoi, QoS: target})
	e.Run(mgr, cfg.MeasureSec)

	// The run-time path TOP-IL runs each epoch: capture, then one Batch
	// row per application.
	var s features.Snapshot
	features.FromEnvInto(&s, e.Env(), nil)
	aoiIdx := -1
	for i, a := range s.Apps {
		if a.Core == 3 {
			aoiIdx = i
		}
	}
	if aoiIdx < 0 {
		t.Fatal("AoI not found in live state")
	}
	var b features.Batch
	b.Reset(s)
	liveVec := make([]float64, features.Dim(s.NumCores, len(s.Clusters)))
	b.VectorInto(liveVec, aoiIdx)

	if len(liveVec) != len(oracleVec) {
		t.Fatalf("dims %d vs %d", len(liveVec), len(oracleVec))
	}
	// One-hot mapping, QoS target and occupancy must match exactly.
	for i := 2; i < 10; i++ {
		if liveVec[i] != oracleVec[i] {
			t.Errorf("one-hot[%d]: live %g vs oracle %g", i-2, liveVec[i], oracleVec[i])
		}
	}
	if liveVec[10] != oracleVec[10] {
		t.Errorf("target: live %g vs oracle %g", liveVec[10], oracleVec[10])
	}
	for c := 0; c < 8; c++ {
		if liveVec[13+c] != oracleVec[13+c] {
			t.Errorf("occupancy[%d]: live %g vs oracle %g", c, liveVec[13+c], oracleVec[13+c])
		}
	}
	// Counters within 5 % (windowed vs trace-mean measurement).
	relClose := func(a, b, tol float64) bool {
		if b == 0 {
			return a == 0
		}
		return math.Abs(a-b)/math.Abs(b) <= tol
	}
	if !relClose(liveVec[0], oracleVec[0], 0.05) {
		t.Errorf("q: live %g vs oracle %g", liveVec[0], oracleVec[0])
	}
	if !relClose(liveVec[1], oracleVec[1], 0.05) {
		t.Errorf("l2d: live %g vs oracle %g", liveVec[1], oracleVec[1])
	}
	// Frequency ratios within 10 % (live uses Eq.-1 estimates from real
	// counters; oracle uses the swept tilde levels).
	for i := 11; i <= 12; i++ {
		if !relClose(liveVec[i], oracleVec[i], 0.10) {
			t.Errorf("ratio[%d]: live %g vs oracle %g", i-11, liveVec[i], oracleVec[i])
		}
	}
}

type consistencyPin struct {
	env        *sim.Env
	level      int
	placements []platform.CoreID
	next       int
}

func (m *consistencyPin) Name() string        { return "consistency-pin" }
func (m *consistencyPin) Attach(env *sim.Env) { m.env = env }
func (m *consistencyPin) Tick(now float64) {
	m.env.SetClusterFreqIndex(0, m.level)
	m.env.SetClusterFreqIndex(1, m.level)
}
func (m *consistencyPin) Place(j workload.Job) platform.CoreID {
	c := m.placements[m.next]
	m.next++
	return c
}
