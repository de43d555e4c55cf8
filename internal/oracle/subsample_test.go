package oracle

import (
	"testing"
)

func TestMaxExamplesPerScenarioCaps(t *testing.T) {
	cfg := quickCfg()
	scn := paperScenario(t, "adi")
	ts, err := CollectTraces(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ExtractExamples(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The cap must drop examples, so it is derived from the full count.
	if len(full) < 4 {
		t.Fatalf("only %d examples; the cap test needs at least 4", len(full))
	}
	limit := len(full) / 2
	cfg.MaxExamplesPerScenario = limit
	capped, err := ExtractExamples(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != limit {
		t.Fatalf("capped size = %d, want %d of %d", len(capped), limit, len(full))
	}
	// Deterministic.
	again, err := ExtractExamples(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range capped {
		if capped[i].Features[10] != again[i].Features[10] {
			t.Fatal("subsampling not deterministic")
		}
	}
	// Survivors are genuine members of the full set, in original order.
	pos := 0
	for _, c := range capped {
		found := false
		for ; pos < len(full); pos++ {
			if sameExample(c, full[pos]) {
				found = true
				pos++
				break
			}
		}
		if !found {
			t.Fatal("subsample emitted an example not in the full set (or reordered)")
		}
	}
}

func sameExample(a, b Example) bool {
	if a.AoIName != b.AoIName || len(a.Features) != len(b.Features) {
		return false
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			return false
		}
	}
	return true
}

func TestSubsampleKeepsAoIDiversity(t *testing.T) {
	// Build examples from two scenarios and cap each: both AoIs survive.
	cfg := quickCfg()
	cfg.MaxExamplesPerScenario = 30
	scns := []Scenario{paperScenario(t, "adi"), paperScenario(t, "seidel-2d")}
	d, err := BuildDataset(scns, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 60 {
		t.Fatalf("dataset size = %d, want 60", d.Len())
	}
	names := d.AoINames()
	if len(names) != 2 {
		t.Fatalf("AoIs after capping = %v", names)
	}
}

func TestComputeStats(t *testing.T) {
	d := &Dataset{NumCores: 4, Examples: []Example{
		{AoIName: "adi",
			Labels: []float64{1, 0.8, -1, 0},
			Temps:  []float64{30, 31, NotApplicable, NotApplicable}},
		{AoIName: "seidel-2d",
			Labels: []float64{0.3, 1, 0, 0},
			Temps:  []float64{33, 30, NotApplicable, NotApplicable}},
	}}
	s := d.ComputeStats()
	if s.Examples != 2 || s.PerAoI["adi"] != 1 || s.PerAoI["seidel-2d"] != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Optimal != 2 || s.NearOptimal != 1 || s.Suboptimal != 1 || s.Infeasible != 1 {
		t.Errorf("label classes: %+v", s)
	}
	if s.MeanFreeCores != 2.5 {
		t.Errorf("mean candidate cores = %g, want 2.5", s.MeanFreeCores)
	}
}
