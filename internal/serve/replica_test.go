package serve

// Replica-mode tests: the drain protocol, Retry-After on shed responses,
// router-minted job IDs and the durable job-store contract (journaling +
// recovery) that internal/cluster builds on.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// memStore is an in-memory JobStore for unit tests; the durable file
// implementation (and its crash tests) live in internal/cluster.
type memStore struct {
	mu   sync.Mutex
	recs []JobRecord
	fail bool
}

func (s *memStore) Append(rec JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return errors.New("memStore: append disabled")
	}
	s.recs = append(s.recs, rec)
	return nil
}

func (s *memStore) Replay() ([]JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]JobRecord(nil), s.recs...), nil
}

// quickSim is a sim request that completes in well under a second.
func quickSimReq() SimRequest {
	return SimRequest{Policy: "GTS/ondemand", Duration: 1, NumJobs: 1, Rate: 2, InstrScale: 0.01}
}

func waitTerminal(t *testing.T, r *Runner, id string) JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := r.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if isTerminal(j.Snapshot().State) {
			return j.Snapshot()
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobSnapshot{}
}

func TestRunnerJournalsTransitions(t *testing.T) {
	store := &memStore{}
	r := NewRunner(NewRegistry(t.TempDir()), 1, 4, nil, store)
	snap, err := r.SubmitID("c-test-0001", quickSimReq())
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "c-test-0001" {
		t.Fatalf("submitted ID not honored: %q", snap.ID)
	}
	final := waitTerminal(t, r, snap.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}
	r.Shutdown(context.Background())

	recs, _ := store.Replay()
	var states []JobState
	for _, rec := range recs {
		if rec.ID == snap.ID {
			states = append(states, rec.State)
		}
	}
	want := []JobState{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("journal states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("journal states = %v, want %v", states, want)
		}
	}
	if recs[0].Req == nil || recs[0].Req.Policy != "GTS/ondemand" {
		t.Errorf("queued record lacks the request: %+v", recs[0])
	}
	if recs[len(recs)-1].Result == nil {
		t.Errorf("done record lacks the result")
	}
}

// gateStore is a memStore whose queued record for job id blocks in Append,
// after closing entered, until release is closed; it then fails with err
// when err is set.
type gateStore struct {
	memStore
	id      string
	err     error
	entered chan struct{}
	release chan struct{}
}

func (s *gateStore) Append(rec JobRecord) error {
	if rec.ID == s.id && rec.State == StateQueued {
		close(s.entered)
		<-s.release
		if s.err != nil {
			return s.err
		}
	}
	return s.memStore.Append(rec)
}

// TestRunnerJournalsQueuedBeforeQueueing holds a job's queued record in
// Append while the single worker is busy with another job: the job must
// not be in the queue yet, or a worker could journal its running and done
// records first. A failed append must leave nothing queued, registered,
// counted or journaled for the refused ID.
func TestRunnerJournalsQueuedBeforeQueueing(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"durable", nil},
		{"append fails", errors.New("gateStore: disk full")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &gateStore{id: "c-gated", err: tc.err,
				entered: make(chan struct{}), release: make(chan struct{})}
			r := NewRunner(NewRegistry(t.TempDir()), 1, 4, nil, store)
			defer r.Shutdown(context.Background())
			long := quickSimReq()
			long.Duration = 86400
			if _, err := r.SubmitID("c-busy", long); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for j, _ := r.Get("c-busy"); j.Snapshot().State != StateRunning; {
				if time.Now().After(deadline) {
					t.Fatal("busy job never started")
				}
				time.Sleep(2 * time.Millisecond)
			}

			type submitted struct {
				snap JobSnapshot
				err  error
			}
			done := make(chan submitted, 1)
			go func() {
				snap, err := r.SubmitID("c-gated", quickSimReq())
				done <- submitted{snap, err}
			}()
			<-store.entered
			if d := r.QueueDepth(); d != 0 {
				t.Errorf("queue depth %d while the queued record is unwritten, want 0", d)
			}
			close(store.release)
			res := <-done
			if !r.Cancel("c-busy") {
				t.Fatal("Cancel(c-busy) = false")
			}

			if tc.err != nil {
				if res.err == nil || !strings.Contains(res.err.Error(), "disk full") {
					t.Fatalf("SubmitID error = %v, want the store's", res.err)
				}
				if d := r.QueueDepth(); d != 0 {
					t.Errorf("queue depth %d after a refused submission, want 0", d)
				}
				if _, ok := r.Get("c-gated"); ok {
					t.Error("refused job is registered")
				}
				r.Shutdown(context.Background())
				if n := r.canceled.Value(); n != 1 {
					t.Errorf("canceled counter = %v, want 1 (the busy job only)", n)
				}
				if n := r.submitted.Value(); n != 1 {
					t.Errorf("submitted counter = %v, want 1", n)
				}
				recs, _ := store.Replay()
				for _, rec := range recs {
					if rec.ID == "c-gated" {
						t.Errorf("refused job journaled %+v", rec)
					}
				}
				return
			}

			if res.err != nil {
				t.Fatal(res.err)
			}
			if final := waitTerminal(t, r, "c-gated"); final.State != StateDone {
				t.Fatalf("gated job ended %q (%s)", final.State, final.Error)
			}
			recs, _ := store.Replay()
			var states []JobState
			for _, rec := range recs {
				if rec.ID == "c-gated" {
					states = append(states, rec.State)
				}
			}
			if !slices.Equal(states, []JobState{StateQueued, StateRunning, StateDone}) {
				t.Errorf("journal states = %v, want [queued running done]", states)
			}
		})
	}
}

func TestRunnerRecoversFromStore(t *testing.T) {
	store := &memStore{}
	// Simulate a crashed replica's journal: one finished job, one that was
	// mid-flight (queued record only) when the process died.
	reqDone := quickSimReq()
	store.recs = []JobRecord{
		{ID: "c-a-0001", State: StateQueued, Req: &reqDone},
		{ID: "c-a-0001", State: StateRunning},
		{ID: "c-a-0001", State: StateDone, Result: &SimResult{Technique: "GTS/ondemand"}},
		{ID: "c-a-0002", State: StateQueued, Req: &reqDone},
		{ID: "c-a-0002", State: StateRunning},
	}
	r := NewRunner(NewRegistry(t.TempDir()), 1, 4, nil, store)
	defer r.Shutdown(context.Background())

	j, ok := r.Get("c-a-0001")
	if !ok || j.Snapshot().State != StateDone {
		t.Fatalf("terminal job not restored: ok=%v", ok)
	}
	if snap := j.Snapshot(); snap.Result == nil || snap.Result.Technique != "GTS/ondemand" {
		t.Errorf("restored result missing: %+v", snap)
	}
	// The interrupted job must be re-executed to a terminal state.
	final := waitTerminal(t, r, "c-a-0002")
	if final.State != StateDone {
		t.Fatalf("interrupted job state = %s (%s)", final.State, final.Error)
	}
	// Runner-minted IDs must not collide with anything recovered.
	snap, err := r.SubmitID("", quickSimReq())
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "c-a-0001" || snap.ID == "c-a-0002" {
		t.Fatalf("recovered ID re-minted: %s", snap.ID)
	}
}

// TestRunnerJobFailsDuringExecution drives a job to StateFailed while it
// runs. Submission rejects a TOP-IL request whose model is missing or does
// not fit the platform, but a recovered queued job skips submission, so
// execution must fail it, count it and journal the failure.
func TestRunnerJobFailsDuringExecution(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "tiny", []int{4, 4, 2}, 1) // wrong shape for the platform
	store := &memStore{}
	for _, model := range []string{"tiny", "absent"} {
		req := quickSimReq()
		req.Policy, req.Model = "TOP-IL", model
		store.recs = append(store.recs, JobRecord{ID: "c-f-" + model, State: StateQueued, Req: &req})
	}
	r := NewRunner(NewRegistry(dir), 1, 4, nil, store)
	for _, model := range []string{"tiny", "absent"} {
		if final := waitTerminal(t, r, "c-f-"+model); final.State != StateFailed || final.Error == "" {
			t.Errorf("model %q: state %q error %q", model, final.State, final.Error)
		}
	}
	r.Shutdown(context.Background())
	if n := r.failed.Value(); n != 2 {
		t.Errorf("failed counter = %v, want 2", n)
	}
	recs, _ := store.Replay()
	failed := 0
	for _, rec := range recs {
		if rec.State == StateFailed && rec.Err != "" {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("journal holds %d failed records with an error, want 2: %+v", failed, recs)
	}
}

func TestRunnerSeqAdvancesPastRecoveredIDs(t *testing.T) {
	store := &memStore{}
	req := quickSimReq()
	store.recs = []JobRecord{
		{ID: "j-000041", State: StateQueued, Req: &req},
		{ID: "j-000041", State: StateDone, Result: &SimResult{}},
	}
	r := NewRunner(NewRegistry(t.TempDir()), 1, 4, nil, store)
	defer r.Shutdown(context.Background())
	snap, err := r.SubmitID("", quickSimReq())
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "j-000042" {
		t.Fatalf("post-recovery mint = %s, want j-000042", snap.ID)
	}
}

func TestSubmitIDConflictAndValidation(t *testing.T) {
	r := NewRunner(NewRegistry(t.TempDir()), 1, 4, nil, nil)
	defer r.Shutdown(context.Background())
	if _, err := r.SubmitID("dup-1", quickSimReq()); err != nil {
		t.Fatal(err)
	}
	_, err := r.SubmitID("dup-1", quickSimReq())
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate ID error = %v, want ErrConflict", err)
	}
	if statusFor(err) != http.StatusConflict {
		t.Errorf("conflict status = %d", statusFor(err))
	}
	for _, bad := range []string{"a/b", "..", strings.Repeat("x", 65), "a b"} {
		if _, err := r.SubmitID(bad, quickSimReq()); err == nil {
			t.Errorf("job ID %q accepted", bad)
		}
	}
}

func TestSubmitFailsWhenStoreFails(t *testing.T) {
	store := &memStore{fail: true}
	r := NewRunner(NewRegistry(t.TempDir()), 1, 4, nil, store)
	defer r.Shutdown(context.Background())
	if _, err := r.SubmitID("", quickSimReq()); err == nil {
		t.Fatal("submission succeeded without a durable queued record")
	}
	if len(r.List()) != 0 {
		t.Errorf("unjournaled job is observable: %v", r.List())
	}
}

func TestDrainProtocol(t *testing.T) {
	_, ts, _ := newTestServer(t)

	resp, _ := postJSON(t, ts.URL+"/v1/drain", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	var health HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", &health)
	if !health.Draining || health.Status != "draining" {
		t.Fatalf("healthz after drain: %+v", health)
	}

	// New work is refused with 503 + Retry-After; reads still work.
	resp, _ = postJSON(t, ts.URL+"/v1/sim", quickSimReq())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sim while draining: %d", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("draining 503 Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	resp, _ = postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "model-1", Inputs: testInputs(1, 3)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer while draining: %d", resp.StatusCode)
	}
	if getJSON(t, ts.URL+"/v1/jobs", nil).StatusCode != http.StatusOK {
		t.Error("reads refused while draining")
	}
}

func TestOverloadCarriesRetryAfter(t *testing.T) {
	// One worker, capacity-1 queue: the first slow job occupies the
	// worker, the second fills the queue, the third is shed with 429.
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 32, 8}, 1)
	s := NewServer(Config{ModelsDir: dir, Workers: 1, QueueCap: 1})
	defer s.Shutdown(context.Background())
	// Heavy enough that the worker stays busy for seconds of wall time
	// (the engine simulates small workloads far faster than real time).
	slow := SimRequest{Policy: "GTS/ondemand", Duration: 86400, NumJobs: 512, Rate: 100, InstrScale: 100}
	if _, err := s.runner.SubmitID("", slow); err != nil {
		t.Fatal(err)
	}
	// Let the single worker dequeue and start the hour-long job, then fill
	// the queue behind it so the next submission must be shed.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := s.runner.SubmitID("", slow); errors.Is(err, ErrOverloaded) {
			break
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/v1/sim", quickSimReq())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded sim: %d", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 5 {
		t.Fatalf("429 Retry-After = %q, want 1..5", resp.Header.Get("Retry-After"))
	}
	// Drain budget exceeded on purpose: cancel the stuck jobs.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	s.Shutdown(ctx)
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct{ depth, cap, want int }{
		{0, 16, 1}, {8, 16, 3}, {16, 16, 5}, {32, 16, 5}, {0, 0, 1}, {-1, 16, 1},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.cap); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d", c.depth, c.cap, got, c.want)
		}
	}
}

func TestFoldRecordsTornJournal(t *testing.T) {
	req := quickSimReq()
	recs := []JobRecord{
		{ID: "a", State: StateQueued, Req: &req},
		{ID: "b", State: StateRunning}, // queued record lost: dropped
		{ID: "a", State: StateRunning},
	}
	folded := FoldJobRecords(recs)
	if len(folded) != 1 || folded[0].ID != "a" || folded[0].State != StateRunning {
		t.Fatalf("folded = %+v", folded)
	}
}

// The cluster job store writes the fold as its snapshot: a JSON array,
// also when every record folds away.
func TestFoldJobRecordsEmptyIsArray(t *testing.T) {
	data, err := json.Marshal(FoldJobRecords([]JobRecord{{ID: "lost", State: StateDone}}))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Fatalf("empty fold marshals to %s, want []", data)
	}
}
