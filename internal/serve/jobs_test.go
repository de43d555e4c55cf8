package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/workload"
)

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, r *Runner, id string, timeout time.Duration) JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, ok := r.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		switch j.Snapshot().State {
		case StateDone, StateFailed, StateCanceled:
			return j.Snapshot()
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, timeout)
	return JobSnapshot{}
}

// quickSim is a sub-second simulation request.
func quickSim(policy string) SimRequest {
	return SimRequest{
		Policy:     policy,
		Duration:   2,
		NumJobs:    3,
		Rate:       2,
		InstrScale: 0.02,
		Seed:       1,
	}
}

func TestRunnerGovernorJob(t *testing.T) {
	r := NewRunner(NewRegistry(t.TempDir()), 2, 8, nil, nil)
	defer r.Shutdown(context.Background())

	snap, err := r.SubmitID("", quickSim("GTS/ondemand"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued && snap.State != StateRunning {
		t.Errorf("fresh job in state %q", snap.State)
	}
	final := waitState(t, r, snap.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("job ended %q (%s)", final.State, final.Error)
	}
	res := final.Result
	if res == nil {
		t.Fatal("done job has no result")
	}
	if res.Technique != "GTS/ondemand" {
		t.Errorf("technique %q", res.Technique)
	}
	if res.Duration <= 0 || res.AvgTemp <= 0 || len(res.Apps) != 3 {
		t.Errorf("implausible result: %+v", res)
	}
}

// TestRunnerTOPILJobWithManifest runs a TOP-IL job on every inference
// backend POST /v1/sim accepts.
func TestRunnerTOPILJobWithManifest(t *testing.T) {
	dir := t.TempDir()
	// features.Dim(8 cores, 2 clusters) = 21 inputs, 8 core ratings out.
	writeModel(t, dir, "model-1", []int{21, 16, 8}, 1)
	r := NewRunner(NewRegistry(dir), 1, 4, nil, nil)
	defer r.Shutdown(context.Background())

	spec, _ := workload.ByName(workload.MixedPool()[0])
	for _, backend := range []string{"npu", "cpu", "fp16"} {
		t.Run(backend, func(t *testing.T) {
			req := SimRequest{
				Policy:   "TOP-IL",
				Model:    "model-1",
				Backend:  backend,
				Duration: 2,
				Jobs: []workload.JobEntry{
					{Name: spec.Name, TotalInstr: spec.TotalInstr * 0.01, QoS: 1e8, Arrival: 0},
					{Name: spec.Name, TotalInstr: spec.TotalInstr * 0.01, QoS: 1e8, Arrival: 0.5},
				},
			}
			snap, err := r.SubmitID("", req)
			if err != nil {
				t.Fatal(err)
			}
			final := waitState(t, r, snap.ID, 30*time.Second)
			if final.State != StateDone {
				t.Fatalf("job ended %q (%s)", final.State, final.Error)
			}
			if final.Result.Technique != "TOP-IL" {
				t.Errorf("technique %q", final.Result.Technique)
			}
			if len(final.Result.Apps) != 2 {
				t.Errorf("%d app results, want 2", len(final.Result.Apps))
			}
		})
	}
}

func TestRunnerValidation(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "tiny", []int{4, 4, 2}, 1) // wrong shape for the platform
	r := NewRunner(NewRegistry(dir), 1, 4, nil, nil)
	defer r.Shutdown(context.Background())

	hot := 400.0
	cases := []SimRequest{
		{Policy: "voodoo", Duration: 1},
		{Policy: "TOP-IL", Duration: 1},                                     // no model
		{Policy: "TOP-IL", Model: "absent", Duration: 1},                    // unknown model
		{Policy: "TOP-IL", Model: "tiny", Backend: "quantum", Duration: 1},  // bad backend
		{Policy: "GTS/ondemand", Backend: "quantum", Duration: 1},           // bad backend, no inference step
		{Policy: "GTS/ondemand", Duration: -3},                              // bad duration
		{Policy: "GTS/ondemand", Duration: 1, NumJobs: -2},                  // bad count
		{Policy: "GTS/ondemand", Jobs: []workload.JobEntry{{Name: "nope"}}}, // bad manifest
		{Policy: "GTS/ondemand", Duration: 1, AmbientC: &hot},               // bad ambient
		{Policy: "TOP-IL", Model: "tiny", Duration: 1},                      // wrong shape
	}
	for i, req := range cases {
		if _, err := r.SubmitID("", req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}

func TestRunnerBackpressureAndCancel(t *testing.T) {
	r := NewRunner(NewRegistry(t.TempDir()), 1, 1, nil, nil)

	long := quickSim("GTS/powersave")
	long.Duration = 3600 // would run for minutes of wall time if not canceled

	running, err := r.SubmitID("", long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker picks it up, then fill the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _ := r.Get(running.ID)
		if j.Snapshot().State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued, err := r.SubmitID("", long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitID("", long); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit = %v, want ErrOverloaded", err)
	}
	if rejected, submitted := r.rejected.Value(), r.submitted.Value(); rejected != 1 || submitted != 2 {
		t.Errorf("rejected = %v, submitted = %v, want 1 and 2", rejected, submitted)
	}

	// Cancel the running job directly; drain the rest with an already
	// expired context so the queued job is canceled at its first tick.
	if !r.Cancel(running.ID) {
		t.Fatal("Cancel returned false")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Shutdown(ctx)

	for _, id := range []string{running.ID, queued.ID} {
		j, _ := r.Get(id)
		if s := j.Snapshot().State; s != StateCanceled {
			t.Errorf("job %s state %q, want canceled", id, s)
		}
	}
	if r.Cancel("j-999999") {
		t.Error("Cancel of unknown job returned true")
	}
	if _, err := r.SubmitID("", long); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after shutdown = %v, want ErrClosed", err)
	}
}

func TestRunnerShutdownDrains(t *testing.T) {
	r := NewRunner(NewRegistry(t.TempDir()), 2, 8, nil, nil)
	ids := make([]string, 3)
	for i := range ids {
		snap, err := r.SubmitID("", quickSim("GTS/ondemand"))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r.Shutdown(ctx) // returns only after every job reached a terminal state
	for _, id := range ids {
		j, _ := r.Get(id)
		if s := j.Snapshot().State; s != StateDone {
			t.Errorf("job %s state %q after drain, want done", id, s)
		}
	}
}
