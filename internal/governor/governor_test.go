package governor

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestOndemandLevels(t *testing.T) {
	o := Ondemand{UpThreshold: 0.8}
	if got := o.Level(1.0, 9); got != 8 {
		t.Errorf("full util: level %d, want 8", got)
	}
	if got := o.Level(0.85, 9); got != 8 {
		t.Errorf("above threshold: level %d, want 8", got)
	}
	if got := o.Level(0, 9); got != 0 {
		t.Errorf("idle: level %d, want 0", got)
	}
	mid := o.Level(0.4, 9)
	if mid <= 0 || mid >= 8 {
		t.Errorf("mid util: level %d, want interior", mid)
	}
	// Defaulted threshold.
	if got := (Ondemand{}).Level(0.9, 9); got != 8 {
		t.Errorf("default threshold: level %d, want 8", got)
	}
}

func TestPowersaveAndPerformance(t *testing.T) {
	if got := (Powersave{}).Level(1.0, 9); got != 0 {
		t.Errorf("powersave level %d, want 0", got)
	}
	if got := (Performance{}).Level(0, 9); got != 8 {
		t.Errorf("performance level %d, want 8", got)
	}
}

func addApps(e *sim.Engine, names []string, qosFrac float64) {
	pm := perf.Default()
	plat := platform.HiKey970()
	for _, n := range names {
		spec, _ := workload.ByName(n)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: qosFrac * pm.PeakIPS(plat, spec)})
	}
}

func TestGTSFavorsBigCluster(t *testing.T) {
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	addApps(e, []string{"adi", "seidel-2d", "syr2k"}, 0.3)
	mgr := NewGTS(Ondemand{UpThreshold: 0.8})
	e.Run(mgr, 10)
	for _, a := range e.Env().Apps() {
		if sc.Platform.KindOf(a.Core) != platform.Big {
			t.Errorf("%s on %v cluster; GTS should favor big for busy tasks",
				a.Name, sc.Platform.KindOf(a.Core))
		}
	}
}

func TestGTSSpreadsLoad(t *testing.T) {
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	addApps(e, []string{"adi", "seidel-2d", "syr2k", "heat-3d",
		"fdtd-2d", "gramschmidt"}, 0.2)
	mgr := NewGTS(Ondemand{})
	e.Run(mgr, 10)
	occ := map[platform.CoreID]int{}
	for _, a := range e.Env().Apps() {
		occ[a.Core]++
	}
	for c, n := range occ {
		if n > 1 {
			t.Errorf("core %d hosts %d apps despite free cores", c, n)
		}
	}
}

func TestOndemandRunsHot(t *testing.T) {
	// GTS/ondemand pushes the big cluster to the top VF level whenever
	// applications run — the paper's Fig. 10 observation.
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	addApps(e, []string{"adi", "syr2k"}, 0.3)
	mgr := NewGTS(Ondemand{UpThreshold: 0.8})
	e.Run(mgr, 10)
	if got := e.Env().ClusterFreqIndex(1); got != 8 {
		t.Errorf("big cluster at level %d under load, want 8", got)
	}
}

func TestPowersaveColdButViolating(t *testing.T) {
	run := func(policy FreqPolicy) *sim.Result {
		sc := sim.DefaultConfig(true, 25)
		e := sim.New(sc)
		addApps(e, []string{"adi", "syr2k", "gramschmidt"}, 0.4)
		return e.Run(NewGTS(policy), 60)
	}
	ond := run(Ondemand{UpThreshold: 0.8})
	psv := run(Powersave{})
	if psv.AvgTemp >= ond.AvgTemp {
		t.Errorf("powersave avg %0.1f not cooler than ondemand %0.1f",
			psv.AvgTemp, ond.AvgTemp)
	}
	if psv.Violations <= ond.Violations {
		t.Errorf("powersave violations %d <= ondemand %d; compute-bound apps must suffer",
			psv.Violations, ond.Violations)
	}
	if ond.Violations > 0 {
		t.Errorf("ondemand violated %d QoS targets at moderate load", ond.Violations)
	}
}

func TestGTSIdleClustersAtMinFreq(t *testing.T) {
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	mgr := NewGTS(Ondemand{})
	e.Run(mgr, 2)
	if e.Env().ClusterFreqIndex(0) != 0 || e.Env().ClusterFreqIndex(1) != 0 {
		t.Errorf("idle clusters at levels %d/%d, want 0/0",
			e.Env().ClusterFreqIndex(0), e.Env().ClusterFreqIndex(1))
	}
}

func TestNewGTSPanicsOnNilPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGTS(nil)
}

func TestGTSNames(t *testing.T) {
	if got := NewGTS(Ondemand{}).Name(); got != "GTS/ondemand" {
		t.Errorf("name = %q", got)
	}
	if got := NewGTS(Powersave{}).Name(); got != "GTS/powersave" {
		t.Errorf("name = %q", got)
	}
	for _, name := range GTSNames() {
		if g, ok := NewGTSByName(name); !ok || g.Name() != name {
			t.Errorf("NewGTSByName(%q) = %v, %v", name, g, ok)
		}
	}
	if _, ok := NewGTSByName("GTS/voodoo"); ok {
		t.Error("unknown GTS name resolved")
	}
}

func TestGTSUpMigratesToIdleBigCore(t *testing.T) {
	// An app placed on a LITTLE core must be pulled up to an idle big
	// core by the rebalancer.
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	spec, _ := workload.ByName("adi")
	spec.TotalInstr = 1e18
	e.AddJob(workload.Job{Spec: spec, QoS: 1e8})
	mgr := &littleThenGTS{gts: NewGTS(Ondemand{})}
	e.Run(mgr, 2)
	apps := e.Env().Apps()
	if len(apps) != 1 {
		t.Fatal("app missing")
	}
	if sc.Platform.KindOf(apps[0].Core) != platform.Big {
		t.Errorf("app still on %v after rebalancing", sc.Platform.KindOf(apps[0].Core))
	}
}

// littleThenGTS forces initial placement onto LITTLE, then delegates to GTS.
type littleThenGTS struct {
	gts *GTS
}

func (m *littleThenGTS) Name() string        { return "little-then-gts" }
func (m *littleThenGTS) Attach(env *sim.Env) { m.gts.Attach(env) }
func (m *littleThenGTS) Tick(now float64)    { m.gts.Tick(now) }
func (m *littleThenGTS) Place(j workload.Job) platform.CoreID {
	return 2 // LITTLE core
}

func TestGTSBalancesOverload(t *testing.T) {
	// Ten apps on eight cores: max-min occupancy must settle within 1.
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	names := append(workload.TrainingSet(), "canneal", "dedup", "ferret")
	for _, n := range names[:10] {
		spec, _ := workload.ByName(n)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 1e8})
	}
	e.Run(NewGTS(Ondemand{}), 5)
	occ := make(map[platform.CoreID]int)
	for _, a := range e.Env().Apps() {
		occ[a.Core]++
	}
	min, max := 99, 0
	for c := platform.CoreID(0); c < 8; c++ {
		n := occ[c]
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Errorf("imbalance %d-%d after rebalancing", min, max)
	}
}

func TestSchedutilLevels(t *testing.T) {
	s := Schedutil{}
	if got := s.Level(1.0, 9); got != 8 {
		t.Errorf("full util: %d, want 8", got)
	}
	if got := s.Level(0.9, 9); got != 8 {
		t.Errorf("0.9 util (×1.25 > 1): %d, want 8", got)
	}
	if got := s.Level(0, 9); got != 0 {
		t.Errorf("idle: %d, want 0", got)
	}
	mid := s.Level(0.4, 9) // 1.25·0.4 = 0.5 → idx 4
	if mid != 4 {
		t.Errorf("0.4 util: %d, want 4", mid)
	}
	// Monotone in utilization.
	prev := -1
	for u := 0.0; u <= 1.0; u += 0.05 {
		l := s.Level(u, 9)
		if l < prev {
			t.Fatalf("schedutil not monotone at util %.2f", u)
		}
		prev = l
	}
}

func TestGTSSchedutilRuns(t *testing.T) {
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	addApps(e, []string{"adi", "syr2k"}, 0.3)
	res := e.Run(NewGTS(Schedutil{}), 30)
	if res.Violations > 0 {
		t.Errorf("schedutil violated %d targets at moderate load", res.Violations)
	}
}

// TestGTSRebalanceDoesNotAllocate pins warmed-up load balancing and
// placement to zero heap allocations: the application views and the
// per-core counts live in buffers the manager keeps between calls.
func TestGTSRebalanceDoesNotAllocate(t *testing.T) {
	e := sim.New(sim.DefaultConfig(true, 25))
	names := append(workload.TrainingSet(), "canneal", "dedup", "ferret")
	for _, n := range names[:10] {
		spec, _ := workload.ByName(n)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 1e8})
	}
	g := NewGTS(Ondemand{UpThreshold: 0.8})
	e.Run(g, 5)
	allocs := testing.AllocsPerRun(100, func() {
		g.rebalance()
		g.Place(workload.Job{})
	})
	if allocs != 0 {
		t.Fatalf("a rebalance and a placement allocate %.0f times, want 0", allocs)
	}
}
