package core

import (
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// The paper states its solution "is compatible with any number of
// clusters". These tests exercise the generic pieces — feature extraction,
// the DVFS control loop, placement — on a three-gear platform. (The RL
// baseline's quantized state space is deliberately 2-cluster-only, and the
// oracle's trace sweep is configured for HiKey970.)

func triEngine() *sim.Engine {
	return sim.New(sim.Config{
		Platform:       platform.TriCluster(),
		Thermal:        thermal.TriClusterNetwork(true, 25),
		Power:          power.Default(),
		Perf:           perf.Default(),
		Dt:             0.01,
		ManagerPeriod:  0.05,
		SensorPeriod:   0.05,
		DTM:            sim.DTMConfig{Enable: true, TripC: 85, ReleaseC: 80, Period: 0.05},
		PenaltyBase:    0.002,
		PenaltyPerMPKI: 0.0007,
		WindowTicks:    10,
	})
}

// triDVFS runs only the DVFS loop on the tri-cluster platform.
type triDVFS struct {
	env  *sim.Env
	loop *DVFSLoop
	pin  platform.CoreID
}

func (m *triDVFS) Name() string        { return "tri-dvfs" }
func (m *triDVFS) Attach(env *sim.Env) { m.env = env; m.loop = NewDVFSLoop(env) }
func (m *triDVFS) Tick(now float64)    { m.loop.Step() }
func (m *triDVFS) Place(j workload.Job) platform.CoreID {
	return m.pin
}

func TestDVFSLoopThreeClusters(t *testing.T) {
	e := triEngine()
	spec, _ := workload.ByName("gramschmidt")
	spec.TotalInstr = 1e18
	// A target the mid cluster can hold at a moderate level.
	pm := perf.Default()
	target := 0.6 * pm.IPS(spec.Phases[0], platform.Mid, 2.5e9, 1)
	e.AddJob(workload.Job{Spec: spec, QoS: target})

	mgr := &triDVFS{pin: 4} // mid core
	res := e.Run(mgr, 20)
	if res.Violations != 0 {
		t.Errorf("violation on mid cluster: mean %g < %g",
			res.Apps[0].MeanIPS, target)
	}
	env := e.Env()
	if got := env.ClusterFreqIndex(0); got != 0 {
		t.Errorf("idle LITTLE at level %d, want 0", got)
	}
	if got := env.ClusterFreqIndex(2); got != 0 {
		t.Errorf("idle big at level %d, want 0", got)
	}
	mid := env.ClusterFreqIndex(1)
	if mid == 0 || mid == 5 {
		t.Errorf("mid cluster at extreme level %d, want interior (just enough)", mid)
	}
}

func TestFeaturesThreeClusters(t *testing.T) {
	e := triEngine()
	spec, _ := workload.ByName("adi")
	spec.TotalInstr = 1e18
	e.AddJob(workload.Job{Spec: spec, QoS: 1e9})
	e.Run(&triDVFS{pin: 6}, 2)

	var s features.Snapshot
	features.FromEnvInto(&s, e.Env(), nil)
	if len(s.Clusters) != 3 {
		t.Fatalf("snapshot clusters = %d", len(s.Clusters))
	}
	dim := features.Dim(s.NumCores, len(s.Clusters))
	if want := features.Dim(8, 3); dim != want {
		t.Fatalf("feature dim = %d, want %d", dim, want)
	}
	var b features.Batch
	b.Reset(s)
	v := make([]float64, dim)
	b.VectorInto(v, 0)
	// Three frequency-ratio features, one per cluster.
	off := 2 + 8 + 1
	for ci := 0; ci < 3; ci++ {
		if v[off+ci] <= 0 || v[off+ci] > 1.01 {
			t.Errorf("ratio feature %d = %g out of range", ci, v[off+ci])
		}
	}
}

func TestTOPILPlaceThreeClusters(t *testing.T) {
	// TOP-IL's placement must prefer big, then mid, then LITTLE as free
	// cores fill up. Use a model with the tri-cluster feature dimension —
	// migration decisions are not under test, only placement.
	e := triEngine()
	mgr := New(noopBackend{}, DefaultConfig())
	spec, _ := workload.ByName("swaptions")
	spec.TotalInstr = 1e18
	for i := 0; i < 5; i++ {
		e.AddJob(workload.Job{Spec: spec, QoS: 1e8, Arrival: float64(i)})
	}
	e.Run(mgr, 6)
	kinds := map[platform.ClusterKind]int{}
	plat := e.Env().Platform()
	for _, a := range e.Env().Apps() {
		kinds[plat.KindOf(a.Core)]++
	}
	if kinds[platform.Big] != 2 || kinds[platform.Mid] != 2 || kinds[platform.Little] != 1 {
		t.Errorf("placement spread big/mid/little = %d/%d/%d, want 2/2/1",
			kinds[platform.Big], kinds[platform.Mid], kinds[platform.Little])
	}
}

// noopBackend returns flat ratings so TOP-IL never migrates (placement-only
// tests).
type noopBackend struct{}

func (noopBackend) Name() string { return "noop" }
func (noopBackend) Infer(batch [][]float64) [][]float64 {
	out := make([][]float64, len(batch))
	for i := range out {
		out[i] = make([]float64, 8)
	}
	return out
}
func (noopBackend) Latency(batchSize int) time.Duration { return 0 }
