package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/online"
	"repro/internal/workload"
)

// passLabeler labels every sim-origin sample with a one-hot of its action
// — an instant stand-in for the oracle in integration tests.
type passLabeler struct{}

func (passLabeler) Label(s online.Sample) ([]float64, bool, error) {
	if s.Origin != online.OriginSim {
		return nil, false, nil
	}
	y := make([]float64, 8)
	y[s.Action%8] = 1
	return y, true, nil
}

// settableReplay scripts the promotion-gate replay metrics.
type settableReplay struct {
	mu sync.Mutex
	m  online.ReplayMetrics
}

func (r *settableReplay) set(m online.ReplayMetrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m = m
}

func (r *settableReplay) fn(_ *nn.MLP, _ int64) (online.ReplayMetrics, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m, nil
}

// onlineTestServer builds a server with the continual learner wired to
// instant fakes (labeling and retraining are real pipeline steps, just
// cheap), plus an httptest frontend.
func onlineTestServer(t *testing.T, replay online.ReplayFunc) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	writeModel(t, dir, "policy", []int{21, 16, 8}, 1)
	s := NewServer(Config{
		ModelsDir: dir,
		Workers:   2,
		QueueCap:  8,
		Online: OnlineConfig{
			Enabled:       true,
			Model:         "policy",
			Dir:           t.TempDir(),
			TrainInterval: 2 * time.Millisecond,
			ShadowWindow:  2,
			MinNewSamples: 1,
			Seed:          7,
			Labeler:       passLabeler{},
			Train: func(incumbent *nn.MLP, ds nn.Dataset, seed int64) (*nn.MLP, error) {
				return incumbent.Clone(), nil
			},
			Replay: replay,
		},
	})
	if s.OnlineManager() == nil {
		t.Fatal("online learner not running")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// onlineStatusOf fetches and decodes GET /v1/online.
func onlineStatusOf(t *testing.T, ts *httptest.Server) online.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/online")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/online = %d", resp.StatusCode)
	}
	var st online.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// runOnlineSim submits a short TOP-IL sim against the online model and
// waits for it to finish.
func runOnlineSim(t *testing.T, ts *httptest.Server, seed int64) {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{
		"policy":   "TOP-IL",
		"model":    "policy",
		"duration": 3,
		"seed":     seed,
		"jobs": []workload.JobEntry{
			{Name: "adi", TotalInstr: 1e12, QoS: 1e9, Arrival: 0},
			{Name: "seidel-2d", TotalInstr: 1e12, QoS: 1e9, Arrival: 0},
		},
	})
	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sim = %d", resp.StatusCode)
	}
	var snap JobSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		jr, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		var js JobSnapshot
		err = json.NewDecoder(jr.Body).Decode(&js)
		jr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch js.State {
		case StateDone:
			return
		case StateFailed, StateCanceled:
			t.Fatalf("sim job ended %s: %s", js.State, js.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sim job did not finish")
}

// inferOnce sends one infer batch against the online model.
func inferOnce(t *testing.T, ts *httptest.Server) {
	t.Helper()
	row := make([]float64, 21)
	row[0] = 0.5
	body, _ := json.Marshal(InferRequest{Model: "policy", Inputs: [][]float64{row, row}})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/infer = %d", resp.StatusCode)
	}
}

// waitOnline polls /v1/online until cond holds.
func waitOnline(t *testing.T, ts *httptest.Server, what string, cond func(online.Status) bool) online.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st online.Status
	for time.Now().Before(deadline) {
		st = onlineStatusOf(t, ts)
		if cond(st) {
			return st
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last status %+v", what, st)
	return st
}

// TestServerOnlineLifecycle drives the full continual-learning cycle over
// HTTP: a sim job records visited states, the loop labels and retrains,
// infer traffic shadow-scores the candidate, the gate promotes it, a
// second candidate with a strict baseline is promoted and then rolled
// back when live telemetry regresses past it.
func TestServerOnlineLifecycle(t *testing.T) {
	replay := &settableReplay{}
	// Generous baseline: no live result can regress past it, so the first
	// promotion sticks.
	replay.set(online.ReplayMetrics{ViolationFrac: 2.0, PeakTemp: 1e6})
	s, ts := onlineTestServer(t, replay.fn)
	defer s.Shutdown(t.Context())

	if st := onlineStatusOf(t, ts); !st.Enabled || st.Model != "policy" || st.ActiveVersion != 1 {
		t.Fatalf("initial status: %+v", st)
	}

	// Recorded → labeled → trained: the sim job feeds the recorder, the
	// loop retrains and stages v2 as shadow.
	runOnlineSim(t, ts, 1)
	st := waitOnline(t, ts, "candidate v2", func(st online.Status) bool {
		return st.CandidateVersion == 2
	})
	if st.SamplesRecorded == 0 || st.SamplesLabeled == 0 || st.TrainCycles == 0 {
		t.Fatalf("pipeline counters empty: %+v", st)
	}

	// Shadow → promoted: live infer traffic mirrors onto the candidate;
	// identical weights agree 100%, the replay gate passes, v2 goes live.
	for i := 0; i < 200; i++ {
		inferOnce(t, ts)
		if onlineStatusOf(t, ts).Promotions >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	st = waitOnline(t, ts, "promotion of v2", func(st online.Status) bool {
		return st.Promotions == 1 && st.ActiveVersion == 2
	})
	if st.PreviousVersion != 1 || st.CandidateVersion != 0 {
		t.Fatalf("post-promotion status: %+v", st)
	}

	// The cycle surfaces on /metrics, and the candidate was shadow-scored
	// before its promotion (Status.ShadowComparisons resets on promotion;
	// the counter is the cumulative record).
	page := string(wireGet(t, ts.URL+"/metrics", http.StatusOK))
	for _, fam := range []string{
		"online_samples_recorded_total", "online_samples_labeled_total",
		"online_train_cycles_total", "online_shadow_rows_total",
		"online_promotions_total", "online_dataset_size",
	} {
		if !strings.Contains(page, "\n"+fam+"{") {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	const shadowRows = `online_shadow_rows_total{model="policy"} `
	i := strings.Index(page, "\n"+shadowRows)
	if i < 0 {
		t.Fatalf("/metrics has no %s series:\n%s", shadowRows, page)
	}
	line, _, _ := strings.Cut(page[i+1+len(shadowRows):], "\n")
	if v, err := strconv.ParseFloat(line, 64); err != nil || v <= 0 {
		t.Errorf("candidate promoted with %s%q (err %v), want > 0", shadowRows, line, err)
	}

	// Auto-rollback on injected regression: the next candidate is promoted
	// against an impossible baseline, so the first live telemetry report
	// (every real sim result has violationFrac >= 0 > -1) rolls back.
	replay.set(online.ReplayMetrics{ViolationFrac: -1, PeakTemp: -100})
	runOnlineSim(t, ts, 2)
	waitOnline(t, ts, "candidate v3", func(st online.Status) bool {
		return st.CandidateVersion == 3
	})
	for i := 0; i < 200; i++ {
		inferOnce(t, ts)
		if onlineStatusOf(t, ts).Promotions >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	st = waitOnline(t, ts, "rollback to v2", func(st online.Status) bool {
		return st.Rollbacks == 1 && st.ActiveVersion == 2
	})
	if st.Promotions != 2 {
		t.Fatalf("post-rollback status: %+v", st)
	}

	// Only sim jobs record states, and every one carries the scenario
	// context the labeler needs: nothing was recorded just to be skipped.
	if st.SamplesSkipped != 0 {
		t.Fatalf("unlabelable samples recorded: %+v", st)
	}
}

// TestServerOnlineInferDoesNotRecord pins that /v1/infer traffic against
// the online model never reaches the sample log: its rows carry no
// scenario context for the oracle, and recording them would evict
// labelable sim-job samples from the bounded reservoir.
func TestServerOnlineInferDoesNotRecord(t *testing.T) {
	s, ts := onlineTestServer(t, (&settableReplay{}).fn)
	defer s.Shutdown(t.Context())
	const n = 20
	for i := 0; i < n; i++ {
		inferOnce(t, ts)
	}
	if st := onlineStatusOf(t, ts); st.SamplesRecorded != 0 {
		t.Fatalf("%d infer calls recorded %d samples, want 0", n, st.SamplesRecorded)
	}
}

// TestServerOnlineDisabledStatus pins the disabled-mode /v1/online shape.
func TestServerOnlineDisabledStatus(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "policy", []int{21, 16, 8}, 1)
	s := NewServer(Config{ModelsDir: dir, Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(t.Context())
	if s.OnlineManager() != nil {
		t.Fatal("learner running without Online.Enabled")
	}
	st := onlineStatusOf(t, ts)
	if st.Enabled || st.Model != "" || st.ActiveVersion != 0 {
		t.Fatalf("disabled status: %+v", st)
	}
}

// TestServerOnlineBadConfigDoesNotKillServing pins the degradation mode:
// a misconfigured learner logs and disables itself; serving works.
func TestServerOnlineBadConfigDoesNotKillServing(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "policy", []int{21, 16, 8}, 1)
	s := NewServer(Config{
		ModelsDir: dir, Workers: 1, QueueCap: 2,
		Online: OnlineConfig{Enabled: true}, // missing Model and Dir
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(t.Context())
	if s.OnlineManager() != nil {
		t.Fatal("misconfigured learner started anyway")
	}
	inferOnce(t, ts)
	if st := onlineStatusOf(t, ts); st.Enabled {
		t.Fatalf("bad config reports enabled: %+v", st)
	}
}

// TestServerOnlineTrainFailureKeepsServing is the serve-layer face of the
// trainer fault-injection satellite: a labeler that always errors plus a
// trainer that always panics never stop /v1/infer from answering and
// never swap the model, while failures surface in /v1/online.
func TestServerOnlineTrainFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "policy", []int{21, 16, 8}, 1)
	s := NewServer(Config{
		ModelsDir: dir,
		Workers:   2,
		QueueCap:  8,
		Online: OnlineConfig{
			Enabled:       true,
			Model:         "policy",
			Dir:           t.TempDir(),
			TrainInterval: 2 * time.Millisecond,
			MinNewSamples: 1,
			Seed:          7,
			Labeler:       passLabeler{},
			Train: func(incumbent *nn.MLP, ds nn.Dataset, seed int64) (*nn.MLP, error) {
				panic("injected trainer fault")
			},
			Replay: (&settableReplay{}).fn,
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	defer s.Shutdown(t.Context())

	runOnlineSim(t, ts, 3)
	waitOnline(t, ts, "first train failure", func(st online.Status) bool {
		return st.TrainFailures >= 1
	})
	// Fresh samples trigger another attempt; it fails again, serving stays up.
	runOnlineSim(t, ts, 4)
	st := waitOnline(t, ts, "second train failure", func(st online.Status) bool {
		return st.TrainFailures >= 2
	})
	if st.ActiveVersion != 1 || st.CandidateVersion != 0 || st.Promotions != 0 {
		t.Fatalf("failed retrains touched the model: %+v", st)
	}
	// Serving is unaffected throughout.
	for i := 0; i < 5; i++ {
		inferOnce(t, ts)
	}
	if st := onlineStatusOf(t, ts); st.ActiveVersion != 1 {
		t.Fatalf("active version moved: %+v", st)
	}
}
