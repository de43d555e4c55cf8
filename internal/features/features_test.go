package features

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func snap() Snapshot {
	littleFreqs := []float64{509e6, 1018e6, 1402e6, 1844e6}
	bigFreqs := []float64{682e6, 1210e6, 1844e6, 2362e6}
	return Snapshot{
		NumCores: 8,
		Clusters: []ClusterState{
			{Freqs: littleFreqs, Freq: 1402e6},
			{Freqs: bigFreqs, Freq: 1210e6},
		},
		Apps: []AppState{
			{ID: 0, Core: 3, Cluster: 0, IPS: 0.4e9, L2DPS: 3e6, QoS: 0.35e9},
			{ID: 1, Core: 6, Cluster: 1, IPS: 1.2e9, L2DPS: 9e6, QoS: 1.0e9},
			{ID: 2, Core: 5, Cluster: 1, IPS: 0.9e9, L2DPS: 5e6, QoS: 0.8e9},
		},
	}
}

// row builds the feature vector for the AoI at index aoi in s.Apps
// through the run-time path, Batch.
func row(s Snapshot, aoi int) []float64 {
	var b Batch
	b.Reset(s)
	v := make([]float64, Dim(s.NumCores, len(s.Clusters)))
	b.VectorInto(v, aoi)
	return v
}

func TestDimMatchesPaper(t *testing.T) {
	if got := Dim(8, 2); got != 21 {
		t.Fatalf("Dim(8,2) = %d, want 21 (Table 2)", got)
	}
}

func TestVectorLayout(t *testing.T) {
	s := snap()
	v := row(s, 0)
	if len(v) != 21 {
		t.Fatalf("feature vector length = %d, want 21", len(v))
	}
	// [0] current QoS, [1] L2D, [2..9] one-hot, [10] target,
	// [11..12] freq ratios, [13..20] utilizations.
	if v[0] != 0.4 {
		t.Errorf("current QoS feature = %g, want 0.4 (GIPS)", v[0])
	}
	if v[1] != 3e6/1e8 {
		t.Errorf("L2D feature = %g", v[1])
	}
	for c := 0; c < 8; c++ {
		want := 0.0
		if c == 3 {
			want = 1
		}
		if v[2+c] != want {
			t.Errorf("one-hot[%d] = %g, want %g", c, v[2+c], want)
		}
	}
	if v[10] != 0.35 {
		t.Errorf("QoS target feature = %g, want 0.35", v[10])
	}
	// Utilization features exclude the AoI (paper Fig.: the AoI's own
	// core reads 0): apps 1 and 2 occupy cores 6 and 5.
	wantUtil := []float64{0, 0, 0, 0, 0, 1, 1, 0}
	for c := 0; c < 8; c++ {
		if v[13+c] != wantUtil[c] {
			t.Errorf("util[%d] = %g, want %g", c, v[13+c], wantUtil[c])
		}
	}
}

func TestBackgroundOccupancyExcludesAoI(t *testing.T) {
	s := snap()
	u := row(s, 1)[UtilOffset(8, 2):] // AoI = app on core 6
	want := []float64{0, 0, 0, 1, 0, 1, 0, 0}
	for c := range want {
		if u[c] != want[c] {
			t.Errorf("occupancy[%d] = %g, want %g", c, u[c], want[c])
		}
	}
}

func TestEstimateMinFreq(t *testing.T) {
	freqs := []float64{509e6, 1018e6, 1402e6, 1844e6}
	// Running at 1402 MHz with 0.4 GIPS; target 0.35 GIPS is already met
	// at 1402·0.35/0.4 = 1227 MHz → lowest level ≥ that would be 1402,
	// but linear scaling says 1018 gives 0.29 < 0.35, so expect 1402.
	f, ok := EstimateMinFreq(freqs, 1402e6, 0.4e9, 0.35e9)
	if !ok || f != 1402e6 {
		t.Errorf("EstimateMinFreq = %g,%v, want 1402 MHz,true", f, ok)
	}
	// Lower target reachable at the bottom level.
	f, ok = EstimateMinFreq(freqs, 1402e6, 0.4e9, 0.1e9)
	if !ok || f != 509e6 {
		t.Errorf("low target: %g,%v, want 509 MHz,true", f, ok)
	}
	// Unreachable target.
	f, ok = EstimateMinFreq(freqs, 1402e6, 0.4e9, 10e9)
	if ok || f != 1844e6 {
		t.Errorf("unreachable: %g,%v, want 1844 MHz,false", f, ok)
	}
	// Zero target is satisfied at the lowest level.
	if f, ok = EstimateMinFreq(freqs, 1402e6, 0.4e9, 0); !ok || f != 509e6 {
		t.Errorf("zero target: %g,%v", f, ok)
	}
	// No throughput info yet: conservative max.
	if f, ok = EstimateMinFreq(freqs, 1402e6, 0, 1e9); ok || f != 1844e6 {
		t.Errorf("no info: %g,%v, want max,false", f, ok)
	}
}

func TestRequiredFreqWithout(t *testing.T) {
	s := snap()
	// Cluster 1 (big, at 1210 MHz) hosts apps 1 (1.2 GIPS, target 1.0)
	// and 2 (0.9 GIPS, target 0.8). Without app 1, only app 2 remains:
	// linear scaling: needs f ≥ 1210·0.8/0.9 = 1076 → level 1210 MHz.
	got := refRequiredFreqWithout(s, 1, 1)
	if got != 1210e6 {
		t.Errorf("required freq without AoI = %g, want 1210 MHz", got)
	}
	// Without app 0, cluster 0 has no other apps: lowest level.
	if got := refRequiredFreqWithout(s, 0, 0); got != 509e6 {
		t.Errorf("empty cluster requirement = %g, want 509 MHz", got)
	}
	// For an AoI on the other cluster, both background apps count:
	// app 1 needs 1210·1.0/1.2 = 1008 → 1210.
	if got := refRequiredFreqWithout(s, 1, 0); got != 1210e6 {
		t.Errorf("cross-cluster requirement = %g", got)
	}
}

func TestFreqRatioFeatures(t *testing.T) {
	s := snap()
	v := row(s, 1) // AoI = app 1 on big
	// LITTLE requirement without AoI: app 0 needs 1402·0.35/0.4 = 1227 →
	// 1402; ratio to current 1402 = 1.
	if math.Abs(v[11]-1.0) > 1e-9 {
		t.Errorf("LITTLE ratio = %g, want 1.0", v[11])
	}
	// big requirement without AoI: app 2 → 1210; ratio 1210/1210 = 1.
	if math.Abs(v[12]-1.0) > 1e-9 {
		t.Errorf("big ratio = %g, want 1.0", v[12])
	}
	// Remove app 2; now big requirement without app 1 is the min level.
	s2 := snap()
	s2.Apps = s2.Apps[:2]
	v2 := row(s2, 1)
	if want := 682e6 / 1210e6; math.Abs(v2[12]-want) > 1e-9 {
		t.Errorf("big ratio with empty background = %g, want %g", v2[12], want)
	}
}

func TestVectorsOnePerApp(t *testing.T) {
	var b Batch
	b.Reset(snap())
	if b.Len() != 3 {
		t.Fatalf("rows = %d, want 3", b.Len())
	}
	// Each row's one-hot must point at that app's core.
	cores := []int{3, 6, 5}
	for i := range cores {
		v := make([]float64, Dim(8, 2))
		b.VectorInto(v, i)
		for c := 0; c < 8; c++ {
			want := 0.0
			if c == cores[i] {
				want = 1
			}
			if v[2+c] != want {
				t.Errorf("row %d one-hot[%d] = %g", i, c, v[2+c])
			}
		}
	}
}

func TestVectorPanics(t *testing.T) {
	s := snap()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad AoI", func() { row(s, 9) })
	mustPanic("negative AoI", func() { row(s, -1) })
	mustPanic("empty freqs", func() { EstimateMinFreq(nil, 1e9, 1e9, 1e9) })
	ratios, utils := []float64{1, 1}, make([]float64, 8)
	mustPanic("bad AoI core", func() { Assemble(1, 1, 8, 8, 1, ratios, utils) })
	mustPanic("short utils", func() { Assemble(1, 1, 0, 8, 1, ratios, utils[:7]) })
	mustPanic("short buffer", func() { AssembleInto(make([]float64, 20), 1, 1, 0, 8, 1, ratios, utils) })
}

func TestFromEnvMatchesLiveState(t *testing.T) {
	cfg := sim.DefaultConfig(true, 25)
	e := sim.New(cfg)
	spec, _ := workload.ByName("adi")
	spec.TotalInstr = 1e18
	e.AddJob(workload.Job{Spec: spec, QoS: 1e9, Arrival: 0})
	e.Run(&freqPin{little: 8, big: 8}, 1)

	s := FromEnv(e.Env())
	if s.NumCores != 8 || len(s.Clusters) != 2 {
		t.Fatalf("snapshot shape: %d cores, %d clusters", s.NumCores, len(s.Clusters))
	}
	if len(s.Apps) != 1 {
		t.Fatalf("snapshot apps = %d", len(s.Apps))
	}
	a := s.Apps[0]
	if a.QoS != 1e9 || a.IPS <= 0 || a.L2DPS <= 0 {
		t.Errorf("snapshot app state: %+v", a)
	}
	if s.Clusters[0].Freq != 1844e6 || s.Clusters[1].Freq != 2362e6 {
		t.Errorf("snapshot freqs: %g, %g", s.Clusters[0].Freq, s.Clusters[1].Freq)
	}
	v := row(s, 0)
	if len(v) != 21 {
		t.Errorf("live feature vector length = %d", len(v))
	}
}

// freqPin pins both clusters to fixed levels.
type freqPin struct {
	env         *sim.Env
	little, big int
}

func (m *freqPin) Name() string        { return "freq-pin" }
func (m *freqPin) Attach(env *sim.Env) { m.env = env }
func (m *freqPin) Tick(now float64) {
	m.env.SetClusterFreqIndex(0, m.little)
	m.env.SetClusterFreqIndex(1, m.big)
}
