package online

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nn"
)

// fakePublisher is an in-memory Publisher with full call observability.
type fakePublisher struct {
	mu      sync.Mutex
	models  map[int]*nn.MLP
	next    int
	active  int
	shadow  int
	swaps   []int
	clears  int
	pubErr  error
	swapErr error
	// pubPanic, when set, makes every Publish panic after counting the
	// call in pubCalls.
	pubPanic bool
	pubCalls int
}

func newFakePublisher(incumbent *nn.MLP) *fakePublisher {
	return &fakePublisher{models: map[int]*nn.MLP{1: incumbent}, next: 2, active: 1}
}

func (p *fakePublisher) Publish(m *nn.MLP) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pubCalls++
	if p.pubPanic {
		panic("synthetic publish panic")
	}
	if p.pubErr != nil {
		return 0, p.pubErr
	}
	v := p.next
	p.next++
	p.models[v] = m
	return v, nil
}

func (p *fakePublisher) Swap(version int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.swapErr != nil {
		return p.swapErr
	}
	if p.models[version] == nil {
		return fmt.Errorf("fake: no version %d", version)
	}
	p.active = version
	p.swaps = append(p.swaps, version)
	if p.shadow == version {
		p.shadow = 0
	}
	return nil
}

func (p *fakePublisher) SetShadow(version int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shadow = version
	return nil
}

func (p *fakePublisher) ClearShadow() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shadow = 0
	p.clears++
}

func (p *fakePublisher) ActiveVersion() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active, nil
}

func (p *fakePublisher) ActiveModel() (*nn.MLP, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.models[p.active], nil
}

func (p *fakePublisher) publishCalls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pubCalls
}

func (p *fakePublisher) state() (active, shadow int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active, p.shadow
}

// funcLabeler adapts a function to Labeler.
type funcLabeler func(s Sample) ([]float64, bool, error)

func (f funcLabeler) Label(s Sample) ([]float64, bool, error) { return f(s) }

// onehotLabeler labels every sim sample with a one-hot of its action.
func onehotLabeler(dim int) funcLabeler {
	return func(s Sample) ([]float64, bool, error) {
		if s.Origin != OriginSim {
			return nil, false, nil
		}
		y := make([]float64, dim)
		y[s.Action%dim] = 1
		return y, true, nil
	}
}

// fastTrain clones the incumbent without fitting — instant "retraining"
// for pipeline tests.
func fastTrain(incumbent *nn.MLP, ds nn.Dataset, seed int64) (*nn.MLP, error) {
	if incumbent == nil {
		return nil, fmt.Errorf("no incumbent")
	}
	return incumbent.Clone(), nil
}

// scriptedReplay returns per-model replay metrics from a mutable table.
type scriptedReplay struct {
	mu      sync.Mutex
	metrics ReplayMetrics
	err     error
	calls   int
}

func (r *scriptedReplay) fn(m *nn.MLP, seed int64) (ReplayMetrics, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	return r.metrics, r.err
}

func managerFixture(t *testing.T, pub *fakePublisher, replay ReplayFunc) *Manager {
	t.Helper()
	log, err := OpenSampleLog(t.TempDir(), 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	m, err := NewManager(ManagerConfig{
		Model:         "policy",
		Publisher:     pub,
		Labeler:       onehotLabeler(8),
		Log:           log,
		Seed:          11,
		MinNewSamples: 4,
		Train:         fastTrain,
		Replay:        replay,
		Gate:          GateConfig{Window: 4, MinAgreement: 0.5, MaxQoSDelta: 0.05, MaxTempDelta: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func recordN(t *testing.T, m *Manager, n, from int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s := mkSample(from + i)
		s.Features = []float64{float64(from + i), 1, 2}
		if err := m.Record(s); err != nil {
			t.Fatal(err)
		}
	}
}

// rows returns n identical rating rows whose argmax is action.
func rows(n, action int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		r := make([]float64, 8)
		r[action] = 1
		out[i] = r
	}
	return out
}

// TestManagerFullCycleAndRollback walks the complete continual-learning
// lifecycle: record → label → train → publish → shadow → promote.
func TestManagerFullCycleAndRollback(t *testing.T) {
	incumbent := nn.NewMLP([]int{3, 8, 8}, 1)
	pub := newFakePublisher(incumbent)
	replay := &scriptedReplay{metrics: ReplayMetrics{ViolationFrac: 0.1, PeakTemp: 60}}
	m := managerFixture(t, pub, replay.fn)

	// Below MinNewSamples: no retrain.
	recordN(t, m, 3, 0)
	if err := m.RunCycle(100); err != nil {
		t.Fatal(err)
	}
	if _, shadow := pub.state(); shadow != 0 {
		t.Fatalf("retrained below MinNewSamples (shadow v%d)", shadow)
	}
	if st := m.Status(); st.SamplesLabeled != 3 || st.DatasetSize != 3 || st.TrainCycles != 0 {
		t.Fatalf("status after undersized cycle: %+v", st)
	}

	// Enough new samples: cycle trains, publishes v2, stages it as shadow.
	recordN(t, m, 5, 3)
	if err := m.RunCycle(200); err != nil {
		t.Fatal(err)
	}
	active, shadow := pub.state()
	if active != 1 || shadow != 2 {
		t.Fatalf("after cycle: active v%d shadow v%d, want v1/v2", active, shadow)
	}
	st := m.Status()
	if st.CandidateVersion != 2 || st.TrainCycles != 1 || st.ActiveVersion != 1 {
		t.Fatalf("status after training cycle: %+v", st)
	}
	if st.LastCycleUnix != 200 {
		t.Fatalf("lastCycleUnix = %d, want 200", st.LastCycleUnix)
	}

	// Window not yet full: no promotion.
	if ok, err := m.TryPromote(); err != nil || ok {
		t.Fatalf("TryPromote before window = (%v, %v)", ok, err)
	}
	// Stale shadow versions are ignored.
	m.ObserveShadow(1, 99, rows(10, 0), rows(10, 0))
	if st := m.Status(); st.ShadowComparisons != 0 {
		t.Fatalf("stale shadow batch counted: %+v", st)
	}
	// Agreeing live traffic fills the window.
	m.ObserveShadow(1, 2, rows(3, 4), rows(3, 4))
	m.ObserveShadow(1, 2, rows(2, 1), rows(2, 1))
	if st := m.Status(); st.ShadowComparisons != 5 || st.ShadowAgreement != 1.0 {
		t.Fatalf("shadow stats: %+v", st)
	}
	ok, err := m.TryPromote()
	if err != nil || !ok {
		t.Fatalf("TryPromote = (%v, %v), want promotion", ok, err)
	}
	active, shadow = pub.state()
	if active != 2 || shadow != 0 {
		t.Fatalf("after promotion: active v%d shadow v%d, want v2/none", active, shadow)
	}
	st = m.Status()
	if st.Promotions != 1 || st.CandidateVersion != 0 || st.ActiveVersion != 2 {
		t.Fatalf("status after promotion: %+v", st)
	}
	if replay.calls != 2 { // candidate + incumbent, same seed
		t.Fatalf("replay calls = %d, want 2", replay.calls)
	}
}

// TestManagerRejectsOnDisagreement kills a candidate whose live shadow
// agreement is below the gate.
func TestManagerRejectsOnDisagreement(t *testing.T) {
	pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
	replay := &scriptedReplay{}
	m := managerFixture(t, pub, replay.fn)

	recordN(t, m, 6, 0)
	if err := m.RunCycle(100); err != nil {
		t.Fatal(err)
	}
	m.ObserveShadow(1, 2, rows(5, 0), rows(5, 7)) // total disagreement
	if ok, err := m.TryPromote(); err != nil || ok {
		t.Fatalf("TryPromote = (%v, %v), want rejection", ok, err)
	}
	active, shadow := pub.state()
	if active != 1 || shadow != 0 || pub.clears != 1 {
		t.Fatalf("rejection state: active v%d shadow v%d clears %d", active, shadow, pub.clears)
	}
	if st := m.Status(); st.CandidatesRejected != 1 || st.Promotions != 0 {
		t.Fatalf("status after rejection: %+v", st)
	}
	if replay.calls != 0 {
		t.Fatalf("replay ran despite agreement rejection (%d calls)", replay.calls)
	}
}

// TestManagerRejectsOnReplayRegression kills a candidate that agrees on
// live traffic but regresses the simulated replay.
func TestManagerRejectsOnReplayRegression(t *testing.T) {
	incumbent := nn.NewMLP([]int{3, 8, 8}, 1)
	pub := newFakePublisher(incumbent)
	replay := &scriptedReplay{}
	m := managerFixture(t, pub, replay.fn)

	recordN(t, m, 6, 0)
	if err := m.RunCycle(100); err != nil {
		t.Fatal(err)
	}
	m.ObserveShadow(1, 2, rows(6, 2), rows(6, 2))
	// The two replays run concurrently: script a candidate that violates
	// QoS far beyond the incumbent baseline.
	m.cfg.Replay = func(mm *nn.MLP, seed int64) (ReplayMetrics, error) {
		if mm != incumbent {
			return ReplayMetrics{ViolationFrac: 0.5, PeakTemp: 95}, nil
		}
		return ReplayMetrics{ViolationFrac: 0.1, PeakTemp: 60}, nil
	}
	if ok, err := m.TryPromote(); err != nil || ok {
		t.Fatalf("TryPromote = (%v, %v), want rejection", ok, err)
	}
	if active, _ := pub.state(); active != 1 {
		t.Fatalf("regressing candidate promoted (active v%d)", active)
	}
	if st := m.Status(); st.CandidatesRejected != 1 {
		t.Fatalf("status after replay rejection: %+v", st)
	}
}

// TestManagerRejectsCandidateWhoseReplayPanics makes the first replay of
// a judgement panic: TryPromote must report it as an error and reject the
// candidate, so the next cycle trains a fresh one, which then promotes.
func TestManagerRejectsCandidateWhoseReplayPanics(t *testing.T) {
	pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
	var calls atomic.Int64
	m := managerFixture(t, pub, func(*nn.MLP, int64) (ReplayMetrics, error) {
		if calls.Add(1) == 1 {
			panic("synthetic replay panic")
		}
		return ReplayMetrics{ViolationFrac: 0.1, PeakTemp: 60}, nil
	})

	recordN(t, m, 4, 0)
	if err := m.RunCycle(100); err != nil {
		t.Fatal(err)
	}
	m.ObserveShadow(1, 2, rows(4, 3), rows(4, 3))
	ok, err := m.TryPromote()
	if ok || err == nil || !strings.Contains(err.Error(), "replay panicked") {
		t.Fatalf("TryPromote = (%v, %v), want a replay-panic rejection", ok, err)
	}
	if st := m.Status(); st.CandidateVersion != 0 || st.CandidatesRejected != 1 {
		t.Fatalf("status after panicking replay: %+v", st)
	}
	if active, shadow := pub.state(); active != 1 || shadow != 0 {
		t.Fatalf("after panicking replay: active v%d shadow v%d, want v1 and none", active, shadow)
	}

	recordN(t, m, 4, 4)
	if err := m.RunCycle(200); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.CandidateVersion != 3 {
		t.Fatalf("next cycle staged v%d, want v3", st.CandidateVersion)
	}
	m.ObserveShadow(1, 3, rows(4, 3), rows(4, 3))
	if ok, err := m.TryPromote(); !ok || err != nil {
		t.Fatalf("TryPromote of the fresh candidate = (%v, %v), want a promotion", ok, err)
	}
	if active, _ := pub.state(); active != 3 {
		t.Fatalf("active v%d, want v3", active)
	}
}

// TestManagerTrainFailureNeverSwaps covers the satellite requirement: a
// failed or panicking retrain surfaces via online_train_failures and never
// publishes, stages or swaps anything.
func TestManagerTrainFailureNeverSwaps(t *testing.T) {
	pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
	m := managerFixture(t, pub, (&scriptedReplay{}).fn)

	m.cfg.Train = func(incumbent *nn.MLP, ds nn.Dataset, seed int64) (*nn.MLP, error) {
		return nil, fmt.Errorf("synthetic training failure")
	}
	recordN(t, m, 6, 0)
	if err := m.RunCycle(100); err == nil {
		t.Fatal("RunCycle swallowed the training failure")
	}
	if active, shadow := pub.state(); active != 1 || shadow != 0 || len(pub.swaps) != 0 {
		t.Fatalf("failed retrain touched the registry: active v%d shadow v%d swaps %v",
			active, shadow, pub.swaps)
	}
	if st := m.Status(); st.TrainFailures != 1 {
		t.Fatalf("train failure not surfaced: %+v", st)
	}

	// A panicking TrainFunc is contained the same way.
	m.cfg.Train = func(incumbent *nn.MLP, ds nn.Dataset, seed int64) (*nn.MLP, error) {
		panic("synthetic training panic")
	}
	recordN(t, m, 6, 6)
	if err := m.RunCycle(200); err == nil {
		t.Fatal("RunCycle swallowed the training panic")
	}
	if st := m.Status(); st.TrainFailures != 2 {
		t.Fatalf("train panic not surfaced: %+v", st)
	}
	if active, shadow := pub.state(); active != 1 || shadow != 0 {
		t.Fatalf("panicking retrain touched the registry: v%d/v%d", active, shadow)
	}

	// Recovery: a later healthy cycle proceeds normally.
	m.cfg.Train = fastTrain
	recordN(t, m, 6, 12)
	if err := m.RunCycle(300); err != nil {
		t.Fatal(err)
	}
	if _, shadow := pub.state(); shadow != 2 {
		t.Fatalf("healthy cycle after failures did not stage a candidate (shadow v%d)", shadow)
	}
}

// TestManagerLabelFailuresAndSkips routes labeler errors and skips to the
// right counters without aborting the cycle.
func TestManagerLabelFailuresAndSkips(t *testing.T) {
	pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
	m := managerFixture(t, pub, (&scriptedReplay{}).fn)
	m.cfg.Labeler = funcLabeler(func(s Sample) ([]float64, bool, error) {
		switch int(s.Features[0]) % 3 {
		case 0:
			return nil, false, fmt.Errorf("synthetic oracle error")
		case 1:
			return nil, false, nil // skip
		default:
			panic("synthetic labeler panic") // must count as failure
		}
	})
	recordN(t, m, 9, 0)
	if err := m.RunCycle(100); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if st.LabelFailures != 6 || st.SamplesSkipped != 3 || st.SamplesLabeled != 0 {
		t.Fatalf("label accounting: %+v", st)
	}
	if st.DatasetSize != 0 || st.TrainCycles != 0 {
		t.Fatalf("unlabeled cycle trained: %+v", st)
	}
	// The drained window advances regardless: the same samples are not
	// re-labeled next cycle.
	if err := m.RunCycle(200); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.LabelFailures != 6 {
		t.Fatalf("samples re-labeled after drain: %+v", st)
	}
}

// TestManagerDatasetIdenticalAcrossWorkerCounts is the -j1 vs -j8 golden:
// the aggregated dataset must be byte-identical for any labeling
// parallelism.
func TestManagerDatasetIdenticalAcrossWorkerCounts(t *testing.T) {
	build := func(workers int) nn.Dataset {
		pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
		log, err := OpenSampleLog(t.TempDir(), 64, 11)
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		m, err := NewManager(ManagerConfig{
			Model:         "policy",
			Publisher:     pub,
			Labeler:       onehotLabeler(8),
			Log:           log,
			Seed:          11,
			Workers:       workers,
			MinNewSamples: 1000, // never train; aggregation only
			DatasetCap:    40,   // force reservoir replacement
			Train:         fastTrain,
			Replay:        (&scriptedReplay{}).fn,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			s := mkSample(i)
			s.Features = []float64{float64(i), float64(i % 7), 3}
			if err := m.Record(s); err != nil {
				t.Fatal(err)
			}
			if i%37 == 36 {
				if err := m.RunCycle(int64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.RunCycle(999); err != nil {
			t.Fatal(err)
		}
		return m.Dataset()
	}

	j1 := build(1)
	for _, workers := range []int{2, 8} {
		jn := build(workers)
		if !reflect.DeepEqual(j1, jn) {
			t.Fatalf("dataset diverges between 1 and %d workers", workers)
		}
	}
	a, err := json.Marshal(j1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build(8))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("dataset JSON not byte-identical across worker counts")
	}
}

func TestNewManagerValidation(t *testing.T) {
	log, err := OpenSampleLog(t.TempDir(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
	lab := onehotLabeler(8)
	if _, err := NewManager(ManagerConfig{Labeler: lab, Log: log}); err == nil {
		t.Fatal("missing Publisher accepted")
	}
	if _, err := NewManager(ManagerConfig{Publisher: pub, Log: log}); err == nil {
		t.Fatal("missing Labeler accepted")
	}
	if _, err := NewManager(ManagerConfig{Publisher: pub, Labeler: lab}); err == nil {
		t.Fatal("missing Log accepted")
	}
	m, err := NewManager(ManagerConfig{Publisher: pub, Labeler: lab, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.Workers != runtime.GOMAXPROCS(0) || m.cfg.MinNewSamples != 8 || m.cfg.DatasetCap != DefaultSampleCap {
		t.Fatalf("defaults not applied: %+v", m.cfg)
	}
	if m.gate.Window != 64 || m.gate.MinAgreement != 0.80 {
		t.Fatalf("gate defaults not applied: %+v", m.gate)
	}
}
