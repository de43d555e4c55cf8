package online

import (
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/oracle"
	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/workload"
)

// tinyLabelConfig is QuickLabelConfig scaled down to test size.
func tinyLabelConfig() oracle.Config {
	cfg := QuickLabelConfig()
	cfg.LevelGrid = []int{0, 8}
	cfg.WarmupSec = 2
	cfg.MeasureSec = 1
	return cfg
}

// visitedSample builds a plausible sim-origin visited state for adi.
func visitedSample() Sample {
	plat := platform.HiKey970()
	nc, ncl := plat.NumCores(), plat.NumClusters()
	x := make([]float64, features.Dim(nc, ncl))
	x[0] = 0.8  // ips / 1e9
	x[1] = 0.05 // l2dps / 1e8
	x[2] = 1    // one-hot: core 0
	x[2+nc] = 0.4
	x[3+nc] = 0.6   // little required/current
	x[3+nc+1] = 0.5 // big required/current
	spec, _ := workload.ByName("adi")
	return Sample{
		Origin:       OriginSim,
		AoI:          "adi",
		Features:     x,
		Action:       0,
		QoS:          0.2 * perf.Default().PeakIPS(plat, spec),
		ClusterFreqs: []float64{1.8e9, 2.4e9},
	}
}

func TestOracleLabelerLabelsVisitedState(t *testing.T) {
	l := NewOracleLabeler(tinyLabelConfig())
	s := visitedSample()
	labels, ok, err := l.Label(s)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("labeler skipped a labelable visited state")
	}
	plat := platform.HiKey970()
	if len(labels) != plat.NumCores() {
		t.Fatalf("len(labels) = %d, want %d", len(labels), plat.NumCores())
	}
	for i, v := range labels {
		if v < 0 || v > 1 {
			t.Fatalf("labels[%d] = %g outside [0, 1]", i, v)
		}
	}
	// Second query hits the trace cache and must reproduce the labels.
	again, ok, err := l.Label(s)
	if err != nil || !ok {
		t.Fatalf("cached Label = (%v, %v)", ok, err)
	}
	if !reflect.DeepEqual(labels, again) {
		t.Fatalf("cached labels diverge: %v vs %v", labels, again)
	}
	if len(l.cache) != 1 || len(l.order) != 1 {
		t.Fatalf("cache holds %d trace sets, want 1", len(l.cache))
	}
}

func TestOracleLabelerSkipsUnlabelableSamples(t *testing.T) {
	l := NewOracleLabeler(tinyLabelConfig())
	base := visitedSample()

	cases := map[string]func(s *Sample){
		"infer origin":      func(s *Sample) { s.Origin = "infer" }, // older logs
		"empty aoi":         func(s *Sample) { s.AoI = "" },
		"unknown benchmark": func(s *Sample) { s.AoI = "no-such-app" },
		"unknown background": func(s *Sample) {
			s.Background = []BackgroundRef{{Name: "no-such-app", Core: 1}}
		},
		"background core out of range": func(s *Sample) {
			s.Background = []BackgroundRef{{Name: "adi", Core: 99}}
		},
		"duplicate background core": func(s *Sample) {
			s.Background = []BackgroundRef{{Name: "adi", Core: 1}, {Name: "seidel-2d", Core: 1}}
		},
		"bad feature dim": func(s *Sample) { s.Features = s.Features[:5] },
		"bad freqs":       func(s *Sample) { s.ClusterFreqs = nil },
		"no qos":          func(s *Sample) { s.QoS = 0 },
	}
	for name, mutate := range cases {
		s := base
		s.Features = append([]float64(nil), base.Features...)
		mutate(&s)
		labels, ok, err := l.Label(s)
		if err != nil {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
		if ok || labels != nil {
			t.Fatalf("%s: labeled an unlabelable sample", name)
		}
	}
	if len(l.cache) != 0 {
		t.Fatalf("skips populated the trace cache (%d entries)", len(l.cache))
	}
}

func TestOracleLabelerCanonicalSignature(t *testing.T) {
	l := NewOracleLabeler(tinyLabelConfig())
	s := visitedSample()
	s.Background = []BackgroundRef{{Name: "seidel-2d", Core: 5}, {Name: "adi", Core: 2}}
	_, sig1, ok := l.scenarioFor(s)
	if !ok {
		t.Fatal("scenario rejected")
	}
	s.Background = []BackgroundRef{{Name: "adi", Core: 2}, {Name: "seidel-2d", Core: 5}}
	_, sig2, ok := l.scenarioFor(s)
	if !ok {
		t.Fatal("scenario rejected")
	}
	if sig1 != sig2 {
		t.Fatalf("background order split the cache signature: %q vs %q", sig1, sig2)
	}
	if want := "adi|adi@2|seidel-2d@5"; sig1 != want {
		t.Fatalf("signature = %q, want %q", sig1, want)
	}
}

func TestOracleLabelerCacheEviction(t *testing.T) {
	l := NewOracleLabeler(tinyLabelConfig())
	l.maxCache = 2
	apps := []string{"adi", "seidel-2d", "jacobi-2d"}
	for _, app := range apps {
		s := visitedSample()
		s.AoI = app
		if _, ok, err := l.Label(s); err != nil || !ok {
			t.Fatalf("%s: Label = (%v, %v)", app, ok, err)
		}
	}
	if len(l.cache) != 2 || len(l.order) != 2 {
		t.Fatalf("cache size %d after eviction, want 2", len(l.cache))
	}
	if _, stillThere := l.cache["adi"]; stillThere {
		t.Fatal("FIFO eviction kept the oldest entry")
	}
}

func TestQuickLabelConfigIsCheaperThanDefault(t *testing.T) {
	q, d := QuickLabelConfig(), oracle.DefaultConfig()
	if len(q.LevelGrid) >= len(d.LevelGrid) {
		t.Fatalf("quick grid %v not coarser than default %v", q.LevelGrid, d.LevelGrid)
	}
	if q.WarmupSec >= d.WarmupSec || q.MeasureSec >= d.MeasureSec {
		t.Fatalf("quick windows (%g, %g) not shorter than default (%g, %g)",
			q.WarmupSec, q.MeasureSec, d.WarmupSec, d.MeasureSec)
	}
}
