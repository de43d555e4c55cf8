package sim

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

// TestDTMOverridesUserspaceRequests verifies that DTM caps the effective
// level while the user-space request stays visible unchanged, as on the
// real board (throttling is opaque to user space).
func TestDTMOverridesUserspaceRequests(t *testing.T) {
	cfg := DefaultConfig(false, 25) // passive cooling
	e := New(cfg)
	for i := 0; i < 4; i++ {
		e.AddJob(job(t, "swaptions", 1e8, 0, 1e18))
	}
	mgr := &spreadBigManager{}
	res := e.Run(mgr, 400)
	if res.ThrottleSeconds == 0 {
		t.Skip("workload did not trip DTM; calibration changed")
	}
	// The manager keeps requesting level 8.
	if got := e.Env().ClusterFreqIndex(1); got != 8 {
		t.Errorf("user-space request = %d, want 8 (DTM must not rewrite it)", got)
	}
	// But the achieved IPS is below the level-8 value.
	apps := e.Env().Apps()
	if len(apps) == 0 {
		t.Fatal("apps vanished")
	}
	full := cfg.Perf.IPS(apps[0].Name2Phase(t), platform.Big, 2362e6, 1)
	if apps[0].IPS >= full*0.99 {
		t.Errorf("throttled IPS %g not below unthrottled %g", apps[0].IPS, full)
	}
}

// Name2Phase is a test helper on AppView resolving the catalog phase.
func (a AppView) Name2Phase(t *testing.T) workload.Phase {
	t.Helper()
	spec, ok := workload.ByName(a.Name)
	if !ok {
		t.Fatalf("unknown app %q", a.Name)
	}
	return spec.Phases[0]
}

// TestArrivalDuringOtherAppsStall checks admission is independent of
// migration stalls.
func TestArrivalDuringOtherAppsStall(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	e := New(cfg)
	e.AddJob(job(t, "canneal", 1e8, 0, 1e18))
	e.AddJob(job(t, "adi", 1e8, 0.505, 1e18)) // arrives right after a migration
	env := e.Env()
	e.Run(&fixedManager{little: 8, big: 8}, 0.5)
	if err := env.Migrate(0, 7); err != nil {
		t.Fatal(err)
	}
	e.Run(&fixedManager{little: 8, big: 8}, 1)
	if got := len(env.Apps()); got != 2 {
		t.Fatalf("running apps = %d, want 2", got)
	}
}

// TestCompletionAccountingExact verifies completion time interpolation
// within a tick: total executed instructions equal the spec exactly.
func TestCompletionAccountingExact(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	e := New(cfg)
	const totalInstr = 3.21e9
	e.AddJob(job(t, "syr2k", 1e8, 0, totalInstr))
	res := e.Run(&fixedManager{little: 8, big: 8}, 20)
	a := res.Apps[0]
	if !a.Finished {
		t.Fatal("did not finish")
	}
	if got := a.MeanIPS * a.ActiveSecs; math.Abs(got-totalInstr) > 1 {
		t.Errorf("executed %.6g instructions, want %.6g", got, totalInstr)
	}
}

// TestZeroQoSNeverViolates: background-style jobs with no QoS target must
// never count as violations.
func TestZeroQoSNeverViolates(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	e := New(cfg)
	e.AddJob(job(t, "canneal", 0, 0, 1e18))
	res := e.Run(&fixedManager{little: 0, big: 0}, 2)
	if res.Violations != 0 {
		t.Errorf("zero-QoS job violated")
	}
}

// TestOverheadNeverExceedsCapacity: charging more overhead than one core
// can absorb must saturate, not go negative.
func TestOverheadNeverExceedsCapacity(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	e := New(cfg)
	e.AddJob(job(t, "swaptions", 1e8, 0, 1e18))
	m := &greedyOverhead{}
	res := e.Run(m, 2)
	if res.OverheadSeconds > res.Duration+1e-9 {
		t.Errorf("charged %g s of overhead in %g s", res.OverheadSeconds, res.Duration)
	}
	if res.Apps[0].MeanIPS < 0 {
		t.Error("negative IPS under overhead saturation")
	}
}

type greedyOverhead struct{ env *Env }

func (m *greedyOverhead) Name() string                         { return "greedy" }
func (m *greedyOverhead) Attach(env *Env)                      { m.env = env }
func (m *greedyOverhead) Tick(now float64)                     { m.env.ChargeOverhead(1.0) }
func (m *greedyOverhead) Place(j workload.Job) platform.CoreID { return 0 }

// TestManagerPeriodRespected: Tick cadence equals Config.ManagerPeriod.
func TestManagerPeriodRespected(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	cfg.ManagerPeriod = 0.2
	e := New(cfg)
	m := &tickCounter{}
	e.Run(m, 2)
	if m.ticks < 9 || m.ticks > 11 {
		t.Errorf("ticks = %d over 2 s at 0.2 s period, want ~10", m.ticks)
	}
}

type tickCounter struct {
	ticks int
}

func (m *tickCounter) Name() string     { return "tick-counter" }
func (m *tickCounter) Attach(env *Env)  {}
func (m *tickCounter) Tick(now float64) { m.ticks++ }

// TestPartialStallExecutesFraction: a stall shorter than one tick must cost
// less than a full tick of throughput.
func TestPartialStallExecutesFraction(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	e := New(cfg)
	e.AddJob(job(t, "swaptions", 1e8, 0, 1e18)) // stall = 2.14 ms < 10 ms tick
	env := e.Env()
	e.Run(&fixedManager{little: 8, big: 8}, 1)
	before := e.apps[0].instrTotal
	// Migrate; the stall must cost roughly 2.14 ms of throughput, clearly
	// less than a whole 10 ms tick.
	cur := env.Apps()[0].Core
	target := platform.CoreID(6)
	if cur == target {
		target = 5
	}
	if err := env.Migrate(0, target); err != nil {
		t.Fatal(err)
	}
	e.Run(&fixedManager{little: 8, big: 8}, 0.01)
	gained := e.apps[0].instrTotal - before
	spec, _ := workload.ByName("swaptions")
	fullTick := cfg.Perf.IPS(spec.Phases[0], platform.Big, 2362e6, 1) * cfg.Dt
	if gained <= 0 {
		t.Fatal("whole tick lost to a sub-tick stall")
	}
	if gained >= fullTick {
		t.Fatalf("no stall cost at all: gained %g of %g", gained, fullTick)
	}
}

// TestEnergyAccounting: integrated energy must equal average power times
// time within discretization error, and split per cluster correctly.
func TestEnergyAccounting(t *testing.T) {
	cfg := DefaultConfig(true, 25)
	e := New(cfg)
	e.AddJob(job(t, "swaptions", 1e8, 0, 1e18))
	res := e.Run(&pinManager{core: 5, big: 8}, 10)
	if len(res.EnergyJ) != 2 {
		t.Fatalf("EnergyJ clusters = %d", len(res.EnergyJ))
	}
	// Big cluster hosts the only busy core at max VF: its energy must
	// dominate the LITTLE cluster's idle draw.
	if res.EnergyJ[1] <= res.EnergyJ[0] {
		t.Errorf("big energy %g not above LITTLE idle energy %g",
			res.EnergyJ[1], res.EnergyJ[0])
	}
	// Uncore: 0.5 W × 10 s = 5 J.
	if math.Abs(res.UncoreEnergyJ-5) > 0.1 {
		t.Errorf("uncore energy = %g J, want 5", res.UncoreEnergyJ)
	}
	// One busy A73 at 2.36 GHz draws roughly 3-4.5 W incl. leakage: the
	// big cluster total (1 busy + 3 idle cores) lands in 30-60 J over 10 s.
	if res.EnergyJ[1] < 25 || res.EnergyJ[1] > 70 {
		t.Errorf("big cluster energy = %g J, implausible", res.EnergyJ[1])
	}
	if got := res.TotalEnergyJ(); got <= res.EnergyJ[1] {
		t.Errorf("TotalEnergyJ = %g, want sum of parts", got)
	}
}
