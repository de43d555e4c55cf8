package online

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLoopDrivesFullCycleWithRollback(t *testing.T) {
	pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
	replay := &scriptedReplay{metrics: ReplayMetrics{ViolationFrac: 0.1, PeakTemp: 60}}
	m := managerFixture(t, pub, replay.fn)
	m.gate.Window = 1
	// A tick may land mid-recordN; any fresh sample must be enough to train.
	m.cfg.MinNewSamples = 1

	recordN(t, m, 6, 0)
	loop := StartLoop(LoopConfig{Interval: 2 * time.Millisecond, Manager: m})
	defer loop.Close()

	// The ticker drains the recorded samples, trains and stages a shadow.
	waitFor(t, "candidate staged", func() bool { return m.Status().CandidateVersion == 2 })
	// Feed agreeing shadow traffic; the next tick promotes.
	m.ObserveShadow(1, 2, rows(2, 3), rows(2, 3))
	waitFor(t, "promotion", func() bool {
		active, _ := pub.state()
		return active == 2
	})
	if st := m.Status(); st.Promotions != 1 || st.CandidateVersion != 0 {
		t.Fatalf("loop lifecycle counters: %+v", st)
	}
}

func TestLoopSurvivesPanicsAndReportsErrors(t *testing.T) {
	pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
	// The manager recovers its Labeler, TrainFunc and ReplayFunc but not
	// the Publisher: a panicking Publish reaches the loop, and only the
	// per-tick backstop keeps it from ending the loop.
	pub.pubPanic = true
	var trainCalls, errs atomic.Int64
	m := managerFixture(t, pub, (&scriptedReplay{}).fn)
	m.cfg.MinNewSamples = 1
	m.cfg.Train = func(incumbent *nn.MLP, ds nn.Dataset, seed int64) (*nn.MLP, error) {
		if trainCalls.Add(1) == 1 {
			panic("synthetic train panic")
		}
		return incumbent.Clone(), nil
	}
	recordN(t, m, 6, 0)
	loop := StartLoop(LoopConfig{
		Interval: 2 * time.Millisecond,
		Manager:  m,
		OnError:  func(error) { errs.Add(1) },
	})

	waitFor(t, "train attempt", func() bool { return trainCalls.Load() >= 1 })
	waitFor(t, "error surfaced", func() bool { return errs.Load() >= 1 })
	// Fresh samples train a candidate whose Publish panics.
	recordN(t, m, 6, 6)
	waitFor(t, "publish panic", func() bool { return pub.publishCalls() >= 1 })
	// Later ticks still run after a tick panicked.
	recordN(t, m, 6, 12)
	waitFor(t, "loop still ticking", func() bool { return pub.publishCalls() >= 2 })
	loop.Close()

	// One failure for the recovered train panic, one per panicked tick.
	if st, want := m.Status(), uint64(1+pub.publishCalls()); st.TrainFailures != want {
		t.Fatalf("train failures = %d, want %d: %+v", st.TrainFailures, want, st)
	}
	if active, shadow := pub.state(); active != 1 || shadow != 0 {
		t.Fatalf("panicking publishes left active v%d shadow v%d", active, shadow)
	}
	// Close is idempotent.
	loop.Close()
}

func TestLoopDefaultInterval(t *testing.T) {
	pub := newFakePublisher(nn.NewMLP([]int{3, 8, 8}, 1))
	m := managerFixture(t, pub, (&scriptedReplay{}).fn)
	loop := StartLoop(LoopConfig{Manager: m})
	if loop.cfg.Interval != 30*time.Second {
		t.Fatalf("default interval = %v", loop.cfg.Interval)
	}
	loop.Close()
}
