package testkit

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/online"
)

// stubLabeler is an always-succeeding DAgger expert: a one-hot of the
// recorded action.
type stubLabeler struct{ dim int }

func (l stubLabeler) Label(s online.Sample) ([]float64, bool, error) {
	y := make([]float64, l.dim)
	y[s.Action%l.dim] = 1
	return y, true, nil
}

// stubPublisher is a minimal in-memory online.Publisher that counts swaps.
type stubPublisher struct {
	mu     sync.Mutex
	models map[int]*nn.MLP
	active int
	next   int
	swaps  int
	shadow int
}

func newStubPublisher(incumbent *nn.MLP) *stubPublisher {
	return &stubPublisher{models: map[int]*nn.MLP{1: incumbent}, active: 1, next: 2}
}

func (p *stubPublisher) Publish(m *nn.MLP) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.next
	p.next++
	p.models[v] = m
	return v, nil
}

func (p *stubPublisher) Swap(version int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.models[version] == nil {
		return fmt.Errorf("stub: no version %d", version)
	}
	p.active = version
	p.swaps++
	return nil
}

func (p *stubPublisher) SetShadow(version int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shadow = version
	return nil
}

func (p *stubPublisher) ClearShadow() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shadow = 0
}

func (p *stubPublisher) ActiveVersion() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active, nil
}

func (p *stubPublisher) ActiveModel() (*nn.MLP, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.models[p.active], nil
}

func (p *stubPublisher) state() (active, swaps int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active, p.swaps
}

// trainerFixture builds a manager over a chaos-wrapped expert and trainer.
func trainerFixture(t *testing.T, c *Chaos, f TrainerFaults) (*online.Manager, *stubPublisher) {
	t.Helper()
	log, err := online.OpenSampleLog(t.TempDir(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	incumbent := nn.NewMLP([]int{4, 8, 3}, 1)
	pub := newStubPublisher(incumbent)
	passTrain := func(inc *nn.MLP, ds nn.Dataset, seed int64) (*nn.MLP, error) {
		return inc.Clone(), nil
	}
	mgr, err := online.NewManager(online.ManagerConfig{
		Model:         "m",
		Publisher:     pub,
		Labeler:       c.WrapLabeler(stubLabeler{dim: 3}, f),
		Log:           log,
		Seed:          5,
		MinNewSamples: 1,
		Train:         c.WrapTrain(passTrain, f),
		Metrics:       online.NewMetrics(nil, "m"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return mgr, pub
}

func recordSamples(t *testing.T, mgr *online.Manager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s := online.Sample{
			Origin:   online.OriginSim,
			Features: []float64{float64(i), 1, 2, 3},
			Action:   i % 3,
		}
		if err := mgr.Record(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrainerFaultsFailedRetrainNeverSwaps drives full DAgger cycles with
// a trainer that always fails (one seed panics, another errors): every
// cycle surfaces via online_train_failures, no candidate is staged, and
// the active model never swaps.
func TestTrainerFaultsFailedRetrainNeverSwaps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults TrainerFaults
		kind   string
	}{
		{"panic", TrainerFaults{TrainPanicProb: 1}, "train-panic"},
		{"error", TrainerFaults{TrainErrProb: 1}, "train-error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChaos(SeedFromEnv(11))
			t.Logf("chaos seed %d (replay: %s=%d)", c.Seed(), SeedEnv, c.Seed())
			mgr, pub := trainerFixture(t, c, tc.faults)
			for i := 0; i < 3; i++ {
				recordSamples(t, mgr, 2)
				if err := mgr.RunCycle(int64(100 + i)); err == nil {
					t.Fatalf("cycle %d: injected %s did not surface as an error", i, tc.kind)
				}
			}
			st := mgr.Status()
			if st.TrainFailures != 3 {
				t.Fatalf("TrainFailures = %d, want 3", st.TrainFailures)
			}
			if st.CandidateVersion != 0 {
				t.Fatalf("failed retrain staged candidate v%d", st.CandidateVersion)
			}
			if active, swaps := pub.state(); active != 1 || swaps != 0 {
				t.Fatalf("failed retrain moved the model: active v%d after %d swap(s)", active, swaps)
			}
			if got := c.EventCount(tc.kind); got != 3 {
				t.Fatalf("%d %s events, want 3", got, tc.kind)
			}
			// Serving keeps answering from the incumbent throughout.
			if m, err := pub.ActiveModel(); err != nil || m == nil {
				t.Fatalf("incumbent unavailable after failed retrains: %v", err)
			}
		})
	}
}

// TestTrainerFaultsLabelerFailures injects expert errors and panics: both
// count as label failures, neither reaches the dataset, and a cycle with
// no usable labels never trains.
func TestTrainerFaultsLabelerFailures(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults TrainerFaults
		kind   string
	}{
		{"error", TrainerFaults{LabelErrProb: 1}, "label-error"},
		{"panic", TrainerFaults{LabelPanicProb: 1}, "label-panic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChaos(SeedFromEnv(13))
			t.Logf("chaos seed %d (replay: %s=%d)", c.Seed(), SeedEnv, c.Seed())
			mgr, pub := trainerFixture(t, c, tc.faults)
			recordSamples(t, mgr, 4)
			if err := mgr.RunCycle(50); err != nil {
				t.Fatalf("label faults must not fail the cycle: %v", err)
			}
			st := mgr.Status()
			if st.LabelFailures != 4 {
				t.Fatalf("LabelFailures = %d, want 4", st.LabelFailures)
			}
			if st.DatasetSize != 0 || st.TrainCycles != 0 {
				t.Fatalf("faulted labels reached training: dataset %d, cycles %d",
					st.DatasetSize, st.TrainCycles)
			}
			if active, swaps := pub.state(); active != 1 || swaps != 0 {
				t.Fatalf("label faults moved the model: active v%d after %d swap(s)", active, swaps)
			}
			if got := c.EventCount(tc.kind); got != 4 {
				t.Fatalf("%d %s events, want 4", got, tc.kind)
			}
		})
	}
}

// TestCorruptSampleTailRecovery crashes an append mid-line: reopening the
// log must recover every record before the torn tail, drop the rest, and
// keep accepting appends.
func TestCorruptSampleTailRecovery(t *testing.T) {
	dir := t.TempDir()
	log, err := online.OpenSampleLog(dir, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s := online.Sample{Origin: online.OriginSim, Features: []float64{float64(i)}, Action: i}
		if _, err := log.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CorruptSampleTail(dir, 10); err != nil {
		t.Fatal(err)
	}
	re, err := online.OpenSampleLog(dir, 64, 1)
	if err != nil {
		t.Fatalf("reopening a torn log must recover, got %v", err)
	}
	defer re.Close()
	n := len(re.Since(0))
	if n == 0 || n >= 8 {
		t.Fatalf("recovered %d samples, want a non-empty strict prefix of 8", n)
	}
	for _, s := range re.Since(0) {
		if len(s.Features) != 1 || s.Features[0] != float64(s.Seq-1) {
			t.Fatalf("recovered sample %d corrupted: %+v", s.Seq, s)
		}
	}
	if _, err := re.Append(online.Sample{Origin: online.OriginSim, Features: []float64{9}, Action: 1}); err != nil {
		t.Fatalf("append after tail recovery: %v", err)
	}
}
