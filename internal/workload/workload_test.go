package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogValid(t *testing.T) {
	for _, s := range Catalog() {
		if err := s.Validate(); err != nil {
			t.Errorf("catalog entry invalid: %v", err)
		}
	}
}

func TestCatalogSortedAndComplete(t *testing.T) {
	cat := Catalog()
	// 9 polybench-like + 8 parsec-like used by the paper's experiments,
	// plus 5 extra polybench-like and 4 extra parsec-like library entries.
	if len(cat) != 26 {
		t.Fatalf("catalog size = %d, want 26", len(cat))
	}
	for i := 1; i < len(cat); i++ {
		if cat[i-1].Name >= cat[i].Name {
			t.Errorf("catalog not sorted at %d: %s >= %s", i, cat[i-1].Name, cat[i].Name)
		}
	}
}

func TestSetsDisjointAndKnown(t *testing.T) {
	seen := map[string]string{}
	add := func(set string, names []string) {
		for _, n := range names {
			if _, ok := ByName(n); !ok {
				t.Errorf("%s: %q not in catalog", set, n)
			}
			if prev, dup := seen[n]; dup {
				t.Errorf("%q in both %s and %s", n, prev, set)
			}
			seen[n] = set
		}
	}
	add("training", TrainingSet())
	add("heldout", HeldOutSet())
	add("unseen", UnseenSet())
	if len(TrainingSet()) != 7 {
		t.Errorf("training set size = %d, want 7", len(TrainingSet()))
	}
	if len(UnseenSet()) != 8 {
		t.Errorf("unseen set size = %d, want 8", len(UnseenSet()))
	}
}

func TestTrainingSetIsPhaseFree(t *testing.T) {
	for _, n := range append(TrainingSet(), HeldOutSet()...) {
		s, _ := ByName(n)
		if len(s.Phases) > 1 {
			t.Errorf("%s: training/held-out benchmark must be phase-free", n)
		}
	}
}

func TestMixedPoolMatchesPaper(t *testing.T) {
	pool := MixedPool()
	if len(pool) != 16 {
		t.Fatalf("mixed pool size = %d, want 16", len(pool))
	}
	want := map[string]bool{"jacobi-2d": true, "canneal": true, "adi": true, "swaptions": true}
	for _, n := range pool {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("mixed pool missing %v", want)
	}
}

func TestPhaseAtCycles(t *testing.T) {
	s, _ := ByName("dedup") // phases of 2e9 instructions each
	p0, p1 := s.Phases[0], s.Phases[1]
	tests := []struct {
		executed float64
		want     Phase
	}{
		{0, p0},
		{1.9e9, p0},
		{2.1e9, p1},
		{3.9e9, p1},
		{4.1e9, p0}, // wrapped around
		{6.5e9, p1},
	}
	for _, tt := range tests {
		got := s.PhaseAt(tt.executed)
		if got != tt.want {
			t.Errorf("PhaseAt(%g): got IPCBig=%g, want IPCBig=%g",
				tt.executed, got.IPCBig, tt.want.IPCBig)
		}
	}
}

func TestPhaseAtSinglePhase(t *testing.T) {
	s, _ := ByName("adi")
	for _, x := range []float64{0, 1e9, 1e12} {
		if got := s.PhaseAt(x); got != s.Phases[0] {
			t.Errorf("PhaseAt(%g) changed for single-phase app", x)
		}
	}
}

func TestPhaseAtProperty(t *testing.T) {
	s, _ := ByName("facesim")
	f := func(raw float64) bool {
		executed := math.Abs(raw)
		if math.IsNaN(executed) || math.IsInf(executed, 0) {
			return true
		}
		got := s.PhaseAt(executed)
		for _, p := range s.Phases {
			if got == p {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := Phase{IPCBig: 2, IPCLittle: 1, MPKI: 1, L2APKI: 4, Instr: 1e9}
	cases := []struct {
		name string
		spec AppSpec
	}{
		{"empty name", AppSpec{Phases: []Phase{good}, TotalInstr: 1e9}},
		{"no phases", AppSpec{Name: "x", TotalInstr: 1e9}},
		{"zero total", AppSpec{Name: "x", Phases: []Phase{good}}},
		{"zero IPC", AppSpec{Name: "x", TotalInstr: 1e9,
			Phases: []Phase{{IPCLittle: 1, MPKI: 1, L2APKI: 1, Instr: 1e9}}}},
		{"negative MPKI", AppSpec{Name: "x", TotalInstr: 1e9,
			Phases: []Phase{{IPCBig: 1, IPCLittle: 1, MPKI: -1, Instr: 1e9}}}},
		{"multi-phase zero instr", AppSpec{Name: "x", TotalInstr: 1e9,
			Phases: []Phase{good, {IPCBig: 1, IPCLittle: 1}}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", c.name)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	peak := func(AppSpec) float64 { return 4e9 }
	a := NewGenerator(7, MixedPool(), peak, 0.2, 0.7, 1).Generate(20, 0.1)
	b := NewGenerator(7, MixedPool(), peak, 0.2, 0.7, 1).Generate(20, 0.1)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("job counts = %d,%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Spec.Name != b[i].Spec.Name || a[i].QoS != b[i].QoS || a[i].Arrival != b[i].Arrival {
			t.Fatalf("job %d differs between equal-seeded generators", i)
		}
	}
	c := NewGenerator(8, MixedPool(), peak, 0.2, 0.7, 1).Generate(20, 0.1)
	same := true
	for i := range a {
		if a[i].Spec.Name != c[i].Spec.Name || a[i].Arrival != c[i].Arrival {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGeneratorProperties(t *testing.T) {
	peak := func(AppSpec) float64 { return 4e9 }
	g := NewGenerator(3, MixedPool(), peak, 0.2, 0.7, 0.5)
	jobs := g.Generate(50, 0.2)
	prev := -1.0
	for i, j := range jobs {
		if j.Arrival < prev {
			t.Fatalf("job %d: arrivals not sorted", i)
		}
		prev = j.Arrival
		if j.QoS < 0.2*4e9-1 || j.QoS > 0.7*4e9+1 {
			t.Errorf("job %d: QoS %g outside configured fraction range", i, j.QoS)
		}
		full, _ := ByName(j.Spec.Name)
		if j.Spec.TotalInstr != full.TotalInstr*0.5 {
			t.Errorf("job %d: instruction scaling not applied", i)
		}
	}
	// Mean inter-arrival should be near 1/rate = 5 s.
	mean := jobs[len(jobs)-1].Arrival / float64(len(jobs)-1)
	if mean < 2 || mean > 10 {
		t.Errorf("mean inter-arrival = %.1f s, want near 5 s", mean)
	}
}

func TestGeneratorPanicsOnBadConfig(t *testing.T) {
	peak := func(AppSpec) float64 { return 4e9 }
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad qos range", func() { NewGenerator(1, MixedPool(), peak, 0.9, 0.2, 1) })
	mustPanic("qos >= 1", func() { NewGenerator(1, MixedPool(), peak, 0.5, 1.0, 1) })
	mustPanic("bad scale", func() { NewGenerator(1, MixedPool(), peak, 0.2, 0.7, 0) })
	mustPanic("bad rate", func() {
		NewGenerator(1, MixedPool(), peak, 0.2, 0.7, 1).Generate(5, 0)
	})
	mustPanic("unknown pool entry", func() {
		NewGenerator(1, []string{"nope"}, peak, 0.2, 0.7, 1).Generate(1, 1)
	})
}
