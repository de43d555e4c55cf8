package oracle

import (
	"math"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/features"
	"repro/internal/platform"
	"repro/internal/workload"
)

// quickCfg keeps trace collection fast for tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.LevelGrid = []int{0, 4, 8}
	cfg.WarmupSec = 10
	cfg.MeasureSec = 3
	cfg.Dt = 0.02
	cfg.QoSFracs = []float64{0.3, 0.6, 0.9}
	return cfg
}

// paperScenario rebuilds the paper's illustrative example: background on
// cores 0,1,2 and 4,5,7; cores 3 (LITTLE) and 6 (big) free.
func paperScenario(t *testing.T, aoi string) Scenario {
	t.Helper()
	spec, ok := workload.ByName(aoi)
	if !ok {
		t.Fatalf("unknown benchmark %q", aoi)
	}
	bg := func(name string, core platform.CoreID) BackgroundApp {
		s, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		return BackgroundApp{Spec: s, Core: core}
	}
	return Scenario{
		AoI: spec,
		Background: []BackgroundApp{
			bg("fdtd-2d", 0), bg("heat-3d", 1), bg("syr2k", 2),
			bg("gramschmidt", 4), bg("floyd-warshall", 5), bg("seidel-2d", 7),
		},
	}
}

func collect(t *testing.T, aoi string) *TraceSet {
	t.Helper()
	ts, err := CollectTraces(paperScenario(t, aoi), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestScenarioValidate(t *testing.T) {
	scn := paperScenario(t, "adi")
	if err := scn.Validate(8); err != nil {
		t.Fatal(err)
	}
	free := scn.FreeCores(8)
	if len(free) != 2 || free[0] != 3 || free[1] != 6 {
		t.Fatalf("free cores = %v, want [3 6]", free)
	}
	bad := scn
	bad.Background = append(bad.Background, BackgroundApp{Spec: scn.AoI, Core: 0})
	if err := bad.Validate(8); err == nil {
		t.Error("duplicate core accepted")
	}
	full := scn
	for _, c := range []platform.CoreID{3, 6} {
		full.Background = append(full.Background, BackgroundApp{Spec: scn.AoI, Core: c})
	}
	if err := full.Validate(8); err == nil {
		t.Error("scenario without free core accepted")
	}
}

func TestCollectTracesCoverage(t *testing.T) {
	ts := collect(t, "adi")
	if len(ts.FreeCores) != 2 {
		t.Fatalf("free cores = %v", ts.FreeCores)
	}
	// CollectTraces must leave every point simulated, not just readable.
	if want := 2 * len(ts.Grid) * len(ts.Grid); len(ts.points) != want {
		t.Fatalf("collected %d points, want %d", len(ts.points), want)
	}
	n := 0
	for li := range ts.Grid {
		for bi := range ts.Grid {
			for _, c := range ts.FreeCores {
				p, err := ts.Point(c, li, bi)
				if err != nil {
					t.Fatal(err)
				}
				if p.AoIIPS <= 0 || p.PeakTemp <= 20 || p.AoIL2DPS <= 0 {
					t.Errorf("degenerate point %+v", p)
				}
				n++
			}
		}
	}
	if n != 2*len(ts.Grid)*len(ts.Grid) {
		t.Errorf("points = %d", n)
	}
}

func TestTracesMonotonicInOwnClusterFreq(t *testing.T) {
	ts := collect(t, "adi")
	// AoI on core 3 (LITTLE): IPS grows with the LITTLE level.
	for bi := range ts.Grid {
		prev := 0.0
		for li := range ts.Grid {
			p, _ := ts.Point(3, li, bi)
			if p.AoIIPS <= prev {
				t.Errorf("core3: IPS not increasing with LITTLE level (bi=%d)", bi)
			}
			prev = p.AoIIPS
		}
	}
	// AoI on core 6 (big): IPS nearly independent of the LITTLE level.
	for bi := range ts.Grid {
		p0, _ := ts.Point(6, 0, bi)
		p2, _ := ts.Point(6, len(ts.Grid)-1, bi)
		if math.Abs(p0.AoIIPS-p2.AoIIPS) > 0.05*p0.AoIIPS {
			t.Errorf("core6: IPS depends on other cluster's level: %g vs %g",
				p0.AoIIPS, p2.AoIIPS)
		}
	}
	// Temperature grows with both clusters' levels.
	tLow, _ := ts.Point(6, 0, 0)
	tHigh, _ := ts.Point(6, len(ts.Grid)-1, len(ts.Grid)-1)
	if tHigh.PeakTemp <= tLow.PeakTemp {
		t.Errorf("temperature not increasing with VF levels: %g vs %g",
			tLow.PeakTemp, tHigh.PeakTemp)
	}
}

func TestExtractExamplesShapeAndLabels(t *testing.T) {
	ts := collect(t, "adi")
	cfg := quickCfg()
	exs, err := ExtractExamples(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) == 0 {
		t.Fatal("no examples extracted")
	}
	for _, e := range exs {
		if e.AoIName != "adi" {
			t.Fatalf("AoIName = %q", e.AoIName)
		}
		if len(e.Features) != features.Dim(8, 2) {
			t.Fatalf("feature dim = %d", len(e.Features))
		}
		if len(e.Labels) != 8 || len(e.Temps) != 8 {
			t.Fatalf("label/temp dims = %d/%d", len(e.Labels), len(e.Temps))
		}
		bestSeen := false
		for c, l := range e.Labels {
			switch c {
			case 3, 6: // free cores
				if l != -1 && (l < 0 || l > 1) {
					t.Errorf("free-core label %g outside [-1]∪[0,1]", l)
				}
				if math.Abs(l-1) < 1e-12 {
					bestSeen = true
					if math.Abs(e.Temps[c]-e.OptTemp) > 1e-9 {
						t.Errorf("best core temp %g != OptTemp %g", e.Temps[c], e.OptTemp)
					}
				}
			default: // occupied
				if l != 0 {
					t.Errorf("occupied core %d label = %g, want 0", c, l)
				}
				if e.Temps[c] != NotApplicable {
					t.Errorf("occupied core %d temp = %g", c, e.Temps[c])
				}
			}
		}
		if !bestSeen {
			t.Error("no core with label 1 (optimum must exist)")
		}
	}
}

func TestAdiExamplesPreferBig(t *testing.T) {
	// The motivational example: for adi with a demanding QoS target, the
	// big cluster (core 6) must be the oracle optimum in the majority of
	// high-QoS selections.
	ts := collect(t, "adi")
	cfg := quickCfg()
	exs, err := ExtractExamples(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bigWins, littleWins := 0, 0
	for _, e := range exs {
		// Restrict to demanding targets (feature 10 = target in GIPS).
		if e.Features[10] < 1.0 {
			continue
		}
		if e.Labels[6] > e.Labels[3] {
			bigWins++
		} else if e.Labels[3] > e.Labels[6] {
			littleWins++
		}
	}
	if bigWins <= littleWins {
		t.Errorf("adi high-QoS: big wins %d vs LITTLE %d, want big to dominate",
			bigWins, littleWins)
	}
}

func TestExamplesDeduplicated(t *testing.T) {
	ts := collect(t, "seidel-2d")
	exs, err := ExtractExamples(ts, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range exs {
		key := ""
		for _, f := range e.Features {
			key += "," + strconv.FormatFloat(f, 'g', -1, 64)
		}
		if seen[key] {
			t.Fatal("duplicate feature vector in extracted examples")
		}
		seen[key] = true
	}
}

func TestDatasetSplitAndRoundTrip(t *testing.T) {
	ts := collect(t, "adi")
	exs, err := ExtractExamples(ts, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := collect(t, "seidel-2d")
	exs2, err := ExtractExamples(ts2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := &Dataset{NumCores: 8, Examples: append(exs, exs2...)}

	names := d.AoINames()
	if len(names) != 2 || names[0] != "adi" || names[1] != "seidel-2d" {
		t.Fatalf("AoINames = %v", names)
	}

	path := filepath.Join(t.TempDir(), "dataset.json.gz")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.NumCores != 8 {
		t.Fatalf("round trip: %d examples, %d cores", back.Len(), back.NumCores)
	}
	for i := range d.Examples {
		if d.Examples[i].AoIName != back.Examples[i].AoIName {
			t.Fatal("round trip reordered examples")
		}
		for j := range d.Examples[i].Features {
			if d.Examples[i].Features[j] != back.Examples[i].Features[j] {
				t.Fatal("round trip corrupted features")
			}
		}
	}

	nnd := d.ToNN()
	if nnd.Len() != d.Len() {
		t.Errorf("ToNN size %d", nnd.Len())
	}
	if err := nnd.Validate(features.Dim(8, 2), 8); err != nil {
		t.Errorf("ToNN shapes: %v", err)
	}
}

func TestRandomScenarios(t *testing.T) {
	pool := workload.TrainingSet()
	scns, err := RandomScenarios(20, pool, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) != 20 {
		t.Fatalf("scenarios = %d", len(scns))
	}
	plat := platform.HiKey970()
	for i, s := range scns {
		if err := s.Validate(8); err != nil {
			t.Fatalf("scenario %d invalid: %v", i, err)
		}
		free := s.FreeCores(8)
		hasL, hasB := false, false
		for _, c := range free {
			switch plat.KindOf(c) {
			case platform.Little:
				hasL = true
			case platform.Big:
				hasB = true
			}
		}
		if !hasL || !hasB {
			t.Errorf("scenario %d: free cores %v miss a cluster", i, free)
		}
	}
	// Deterministic.
	again, _ := RandomScenarios(20, pool, 5)
	for i := range scns {
		if scns[i].AoI.Name != again[i].AoI.Name ||
			len(scns[i].Background) != len(again[i].Background) {
			t.Fatal("RandomScenarios not deterministic")
		}
	}
	if _, err := RandomScenarios(1, []string{"bogus"}, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBuildDatasetSmall(t *testing.T) {
	cfg := quickCfg()
	cfg.LevelGrid = []int{0, 8}
	cfg.WarmupSec = 5
	cfg.MeasureSec = 2
	scns, err := RandomScenarios(2, []string{"adi", "seidel-2d"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	d, err := BuildDataset(scns, cfg, func(done, total int) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("empty dataset")
	}
	if calls != 2 {
		t.Errorf("progress calls = %d", calls)
	}
}

func TestCollectTracesRejectsBadConfig(t *testing.T) {
	scn := paperScenario(t, "adi")
	cfg := quickCfg()
	cfg.LevelGrid = nil
	if _, err := CollectTraces(scn, cfg); err == nil {
		t.Error("empty grid accepted")
	}
	cfg = quickCfg()
	cfg.LevelGrid = []int{0, 42}
	if _, err := CollectTraces(scn, cfg); err == nil {
		t.Error("out-of-range level accepted")
	}
}
