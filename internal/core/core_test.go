package core

import (
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/oracle"
	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ---- shared tiny training pipeline for tests ----

var (
	once      sync.Once
	testModel *nn.MLP
	testData  *oracle.Dataset
	buildErr  error
)

func trainedModel(t *testing.T) (*nn.MLP, *oracle.Dataset) {
	t.Helper()
	once.Do(func() {
		cfg := oracle.DefaultConfig()
		cfg.LevelGrid = []int{0, 4, 8}
		cfg.WarmupSec = 10
		cfg.MeasureSec = 3
		cfg.Dt = 0.02
		cfg.QoSFracs = []float64{0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45,
			0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9}
		canon, err := oracle.CanonicalScenarios(workload.TrainingSet())
		if err != nil {
			buildErr = err
			return
		}
		rnd, err := oracle.RandomScenarios(10, workload.TrainingSet(), 11)
		if err != nil {
			buildErr = err
			return
		}
		scns := append(canon, rnd...)
		testData, err = oracle.BuildDataset(scns, cfg, nil)
		if err != nil {
			buildErr = err
			return
		}
		topo := nn.PaperTopology(features.Dim(8, 2), 8)
		// Slower LR decay than the paper's 0.95: our quick-scale dataset
		// is smaller (fewer gradient steps per epoch), so reaching the
		// same optimization budget needs more epochs at useful LR.
		testModel, _, buildErr = TrainModel(testData, topo, 1,
			nn.TrainConfig{MaxEpochs: 220, Patience: 50, LRDecay: 0.985})
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return testModel, testData
}

// ---- DVFS loop ----

func TestDVFSLoopConvergesToQoSLevel(t *testing.T) {
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	spec, _ := workload.ByName("adi")
	spec.TotalInstr = 1e18
	// 30 % of peak: adi needs big@~0.7 GHz or LITTLE@max.
	pm := perf.Default()
	target := 0.3 * pm.PeakIPS(sc.Platform, spec)
	e.AddJob(workload.Job{Spec: spec, QoS: target, Arrival: 0})

	mgr := &dvfsOnly{pin: 6} // big core
	res := e.Run(mgr, 20)
	if res.Apps[0].Violated {
		t.Errorf("DVFS loop failed to maintain QoS: mean %g < %g",
			res.Apps[0].MeanIPS, target)
	}
	// The big cluster must settle at a low level (not max), LITTLE idle at 0.
	env := e.Env()
	if got := env.ClusterFreqIndex(1); got > 2 {
		t.Errorf("big cluster settled at level %d, want <= 2 (just enough)", got)
	}
	if got := env.ClusterFreqIndex(0); got != 0 {
		t.Errorf("idle LITTLE cluster at level %d, want 0", got)
	}
}

// dvfsOnly runs only the DVFS control loop with a fixed placement.
type dvfsOnly struct {
	env  *sim.Env
	loop *DVFSLoop
	pin  platform.CoreID
}

func (m *dvfsOnly) Name() string        { return "dvfs-only" }
func (m *dvfsOnly) Attach(env *sim.Env) { m.env = env; m.loop = NewDVFSLoop(env) }
func (m *dvfsOnly) Tick(now float64)    { m.loop.Step() }
func (m *dvfsOnly) Place(j workload.Job) platform.CoreID {
	return m.pin
}

func TestDVFSLoopStepsOneLevelAtATime(t *testing.T) {
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	spec, _ := workload.ByName("swaptions")
	spec.TotalInstr = 1e18
	e.AddJob(workload.Job{Spec: spec, QoS: 4e9, Arrival: 0}) // demands max
	env := e.Env()
	mgr := &levelRecorder{}
	e.Run(mgr, 3)
	for i := 1; i < len(mgr.levels); i++ {
		if d := mgr.levels[i] - mgr.levels[i-1]; d > 1 || d < -1 {
			t.Fatalf("level jumped by %d in one iteration", d)
		}
	}
	if env.ClusterFreqIndex(1) == 0 {
		t.Error("big cluster never ramped up under demanding QoS")
	}
}

type levelRecorder struct {
	env    *sim.Env
	loop   *DVFSLoop
	levels []int
}

func (m *levelRecorder) Name() string        { return "level-recorder" }
func (m *levelRecorder) Attach(env *sim.Env) { m.env = env; m.loop = NewDVFSLoop(env) }
func (m *levelRecorder) Tick(now float64) {
	m.loop.Step()
	m.levels = append(m.levels, m.env.ClusterFreqIndex(1))
}
func (m *levelRecorder) Place(j workload.Job) platform.CoreID { return 6 }

func TestDVFSLoopSkipsAfterMigration(t *testing.T) {
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	spec, _ := workload.ByName("adi")
	spec.TotalInstr = 1e18
	e.AddJob(workload.Job{Spec: spec, QoS: 4e9, Arrival: 0})
	mgr := &dvfsOnly{pin: 6}
	e.Run(mgr, 1)
	before := e.Env().ClusterFreqIndex(1)
	mgr.loop.NotifyMigration()
	// Two skipped iterations: level must not change over the next two ticks.
	e.Run(mgr, 0.1) // two 50 ms manager ticks
	after := e.Env().ClusterFreqIndex(1)
	if after != before {
		t.Errorf("level changed during skip window: %d -> %d", before, after)
	}
	e.Run(mgr, 0.5)
	if e.Env().ClusterFreqIndex(1) == before && before < 8 {
		t.Error("loop never resumed after skip window")
	}
}

// ---- training pipeline & model evaluation ----

func TestTrainModelProducesUsefulModel(t *testing.T) {
	m, d := trainedModel(t)
	if m.InputDim() != 21 || m.OutputDim() != 8 {
		t.Fatalf("model dims %d -> %d", m.InputDim(), m.OutputDim())
	}
	ev, err := EvaluateModel(m, d)
	if err != nil {
		t.Fatal(err)
	}
	if ev.N == 0 {
		t.Fatal("no evaluable examples")
	}
	// On its own training distribution the model must be clearly better
	// than chance (2 free cores typical → chance ≈ 50 %).
	if ev.WithinOneC < 0.6 {
		t.Errorf("within-1°C fraction = %.2f on training data, want >= 0.6", ev.WithinOneC)
	}
	if ev.MeanExcess > 2.0 {
		t.Errorf("mean excess temperature = %.2f °C, want < 2", ev.MeanExcess)
	}
}

func TestEvaluateModelHeldOut(t *testing.T) {
	m, d := trainedModel(t)
	names := d.AoINames()
	if len(names) < 2 {
		t.Skip("dataset has a single AoI")
	}
	test := &oracle.Dataset{NumCores: d.NumCores}
	for _, e := range d.Examples {
		if e.AoIName == names[0] {
			test.Examples = append(test.Examples, e)
		}
	}
	if test.Len() == 0 {
		t.Skip("no held-out examples")
	}
	ev, err := EvaluateModel(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.WithinOneC < 0.3 {
		t.Errorf("held-out within-1°C = %.2f, suspiciously poor", ev.WithinOneC)
	}
}

func TestTrainModelErrors(t *testing.T) {
	if _, _, err := TrainModel(&oracle.Dataset{}, []int{21, 8}, 1, nn.TrainConfig{}); err == nil {
		t.Error("empty dataset accepted")
	}
	_, d := trainedModel(t)
	if _, _, err := TrainModel(d, []int{5, 8}, 1, nn.TrainConfig{MaxEpochs: 1}); err == nil {
		t.Error("wrong topology accepted")
	}
	if _, err := EvaluateModel(nn.NewMLP([]int{21, 8}, 0), &oracle.Dataset{}); err == nil {
		t.Error("empty test set accepted")
	}
}

// ---- TOP-IL manager ----

func newTOPIL(t *testing.T) *TOPIL {
	m, _ := trainedModel(t)
	return New(npu.New(m), DefaultConfig())
}

func TestTOPILEndToEnd(t *testing.T) {
	mgr := newTOPIL(t)
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	pm := perf.Default()
	specAdi, _ := workload.ByName("adi")
	specSeidel, _ := workload.ByName("seidel-2d")
	specAdi.TotalInstr, specSeidel.TotalInstr = 1e18, 1e18
	e.AddJob(workload.Job{Spec: specAdi, QoS: 0.3 * pm.PeakIPS(sc.Platform, specAdi)})
	e.AddJob(workload.Job{Spec: specSeidel, QoS: 0.3 * pm.PeakIPS(sc.Platform, specSeidel)})

	res := e.Run(mgr, 60)
	if res.Violations > 0 {
		for _, a := range res.Apps {
			t.Logf("%s: mean %g target %g", a.Name, a.MeanIPS, a.QoS)
		}
		t.Errorf("TOP-IL violated QoS for %d apps", res.Violations)
	}
	st := mgr.Stats()
	if st.MigrationInvocations == 0 || st.DVFSInvocations == 0 {
		t.Errorf("manager idle: %+v", st)
	}
	// Overhead must stay within the paper's ~1.7 % bound.
	if frac := res.OverheadSeconds / res.Duration; frac > 0.025 {
		t.Errorf("overhead fraction = %.3f, want <= 0.025", frac)
	}
}

func TestTOPILPlacePrefersFreeBigCore(t *testing.T) {
	mgr := newTOPIL(t)
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	spec, _ := workload.ByName("adi")
	spec.TotalInstr = 1e18
	e.AddJob(workload.Job{Spec: spec, QoS: 1e9, Arrival: 0})
	e.Run(mgr, 0.2)
	apps := e.Env().Apps()
	if len(apps) != 1 {
		t.Fatal("app not admitted")
	}
	if kind := sc.Platform.KindOf(apps[0].Core); kind != platform.Big {
		t.Errorf("first arrival placed on %v cluster, want big", kind)
	}
}

// TestTOPILPlaceDoesNotAllocate pins placement at 0 allocations with
// applications running: it counts occupancy in the manager's reused view
// buffer instead of copying each core's application list.
func TestTOPILPlaceDoesNotAllocate(t *testing.T) {
	mgr := New(noopBackend{}, DefaultConfig())
	e := sim.New(sim.DefaultConfig(true, 25))
	spec, _ := workload.ByName("adi")
	spec.TotalInstr = 1e18
	for i := 0; i < 3; i++ {
		e.AddJob(workload.Job{Spec: spec, QoS: 1e8})
	}
	e.Run(mgr, 0.2)
	if n := len(e.Env().Apps()); n != 3 {
		t.Fatalf("%d apps running, want 3", n)
	}
	job := workload.Job{Spec: spec, QoS: 1e8}
	if allocs := testing.AllocsPerRun(100, func() { mgr.Place(job) }); allocs != 0 {
		t.Errorf("Place: %v allocs/op, want 0", allocs)
	}
}

func TestTOPILMigratesTowardOptimum(t *testing.T) {
	// adi with a 30 % target: oracle optimum is the big cluster. Start it
	// on a LITTLE core via a plain engine (default placement = core 0)
	// and check TOP-IL moves it to big.
	m, _ := trainedModel(t)
	cfg := DefaultConfig()
	mgr := New(npu.New(m), cfg)
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	pm := perf.Default()
	spec, _ := workload.ByName("adi")
	spec.TotalInstr = 1e18
	target := 0.3 * pm.PeakIPS(sc.Platform, spec)
	e.AddJob(workload.Job{Spec: spec, QoS: target})

	// Force initial placement on LITTLE by attaching a placement shim.
	shim := &placeShim{inner: mgr, core: 1}
	res := e.Run(shim, 30)
	finalCore := res.Apps[0].Core
	if kind := sc.Platform.KindOf(finalCore); kind != platform.Big {
		t.Errorf("adi ended on %v cluster (core %d), want big", kind, finalCore)
	}
	if res.Migrations == 0 {
		t.Error("no migration executed")
	}
}

// placeShim overrides initial placement but delegates management.
type placeShim struct {
	inner *TOPIL
	core  platform.CoreID
}

func (p *placeShim) Name() string                         { return p.inner.Name() }
func (p *placeShim) Attach(env *sim.Env)                  { p.inner.Attach(env) }
func (p *placeShim) Tick(now float64)                     { p.inner.Tick(now) }
func (p *placeShim) Place(j workload.Job) platform.CoreID { return p.core }

func TestTOPILStability(t *testing.T) {
	// Once settled, TOP-IL must not ping-pong: count migrations in the
	// second half of a steady two-app run.
	mgr := newTOPIL(t)
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	pm := perf.Default()
	for _, name := range []string{"adi", "seidel-2d"} {
		spec, _ := workload.ByName(name)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 0.3 * pm.PeakIPS(sc.Platform, spec)})
	}
	settled := e.Run(mgr, 30).Migrations
	total := e.Run(mgr, 30).Migrations // Result metrics are cumulative
	if d := total - settled; d > 3 {
		t.Errorf("policy unstable: %d migrations in steady state", d)
	}
}

func TestTOPILOverheadScaling(t *testing.T) {
	// Fig. 12 shape: DVFS overhead grows with app count; migration
	// overhead stays nearly constant (NPU batch inference).
	m, _ := trainedModel(t)
	run := func(apps int) OverheadStats {
		mgr := New(npu.New(m), DefaultConfig())
		sc := sim.DefaultConfig(true, 25)
		e := sim.New(sc)
		spec, _ := workload.ByName("seidel-2d")
		spec.TotalInstr = 1e18
		for i := 0; i < apps; i++ {
			e.AddJob(workload.Job{Spec: spec, QoS: 1e8})
		}
		e.Run(mgr, 10)
		return mgr.Stats()
	}
	s2, s8 := run(2), run(8)
	dvfs2 := s2.DVFSSeconds / float64(s2.DVFSInvocations)
	dvfs8 := s8.DVFSSeconds / float64(s8.DVFSInvocations)
	if dvfs8 <= dvfs2 {
		t.Errorf("DVFS overhead did not grow with apps: %g vs %g", dvfs2, dvfs8)
	}
	mig2 := s2.MigrationSeconds / float64(s2.MigrationInvocations)
	mig8 := s8.MigrationSeconds / float64(s8.MigrationInvocations)
	if mig8 > mig2*1.1 {
		t.Errorf("migration overhead grew with apps: %g -> %g (want ~constant)", mig2, mig8)
	}
}

func TestNewPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nil backend", func() { New(nil, DefaultConfig()) })
	mustPanic("bad period", func() {
		m := nn.NewMLP([]int{21, 8}, 0)
		cfg := DefaultConfig()
		cfg.MigrationPeriod = 0
		New(npu.New(m), cfg)
	})
}

func TestFreqPos(t *testing.T) {
	freqs := []float64{1, 2, 3}
	cases := []struct {
		f    float64
		want int
	}{{0.5, 0}, {1, 0}, {2, 1}, {2.5, 2}, {3, 2}, {9, 2}}
	for _, c := range cases {
		if got := freqPos(freqs, c.f); got != c.want {
			t.Errorf("freqPos(%g) = %d, want %d", c.f, got, c.want)
		}
	}
}
