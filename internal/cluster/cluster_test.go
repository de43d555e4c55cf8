package cluster

// End-to-end cluster tests over real serve replicas: sharded submission
// through the router, a testkit-scheduled replica kill mid-run, journal
// recovery on restart, and the accepted-implies-terminal guarantee.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/testkit"
)

// startCluster brings up n journal-backed replicas with one shared model
// and a router in front.
func startCluster(t *testing.T, n int) (*ReplicaSet, *Router, *httptest.Server) {
	t.Helper()
	modelsDir := t.TempDir()
	m := nn.NewMLP([]int{21, 32, 8}, 1)
	if err := core.SaveModel(m, filepath.Join(modelsDir, "model-1.json")); err != nil {
		t.Fatal(err)
	}
	set, err := StartReplicaSet(ReplicaSetConfig{
		N: n,
		Serve: serve.Config{
			ModelsDir: modelsDir,
			Workers:   2,
			QueueCap:  16,
			Batch:     serve.BatcherConfig{MaxBatch: 16, QueueCap: 256},
		},
		StoreRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Replicas:       set.Replicas(),
		HealthInterval: 25 * time.Millisecond,
		RetryBackoff:   2 * time.Millisecond,
	})
	if err != nil {
		set.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
		set.Close()
	})
	return set, rt, ts
}

func postSim(t *testing.T, url string, req serve.SimRequest) (*http.Response, serve.JobSnapshot) {
	t.Helper()
	data, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/sim", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST /v1/sim: %v", err)
	}
	defer resp.Body.Close()
	var snap serve.JobSnapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return resp, snap
}

func quickClusterSim() serve.SimRequest {
	return serve.SimRequest{Policy: "GTS/ondemand", Duration: 1, NumJobs: 1, Rate: 2, InstrScale: 0.01}
}

// TestClusterShardsAndServes is the happy path: jobs submitted through
// the router get router-minted IDs, land on exactly one replica each,
// and are readable back through the router; infer requests round-trip.
func TestClusterShardsAndServes(t *testing.T) {
	set, _, ts := startCluster(t, 3)

	var ids []string
	for i := 0; i < 9; i++ {
		resp, snap := postSim(t, ts.URL, quickClusterSim())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sim %d: %d", i, resp.StatusCode)
		}
		if snap.ID == "" {
			t.Fatal("no job ID in response")
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		waitClusterTerminal(t, ts.URL, id, serve.StateDone, 30*time.Second)
	}

	// Jobs spread over replicas (9 IDs over 3 replicas: at least two
	// replicas must own one — all-on-one would mean sharding is broken).
	occupied := 0
	for i := 0; i < 3; i++ {
		recs, err := set.Replica(i).Store().Replay()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("all %d jobs landed on %d replica(s); sharding broken", len(ids), occupied)
	}

	// Infer through the router.
	body := []byte(`{"model":"model-1","inputs":[[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0,0.5]]}`)
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer via router: %d", resp.StatusCode)
	}
	var out serve.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Outputs) != 1 || len(out.Outputs[0]) != 8 {
		t.Fatalf("infer outputs = %+v", out.Outputs)
	}

	// The merged job listing sees every job.
	listResp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Jobs []serve.JobSnapshot `json:"jobs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != len(ids) {
		t.Fatalf("fan-out listing has %d jobs, want %d", len(list.Jobs), len(ids))
	}
}

// waitClusterTerminal polls a job through the router until it reaches a
// terminal state (404s are tolerated while its replica is down).
func waitClusterTerminal(t *testing.T, base, id string, want serve.JobState, timeout time.Duration) serve.JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err == nil {
			var snap serve.JobSnapshot
			dec := json.NewDecoder(resp.Body)
			if resp.StatusCode == http.StatusOK && dec.Decode(&snap) == nil {
				resp.Body.Close()
				switch snap.State {
				case serve.StateDone, serve.StateFailed, serve.StateCanceled:
					if want != "" && snap.State != want {
						t.Fatalf("job %s ended %s (%s), want %s", id, snap.State, snap.Error, want)
					}
					return snap
				}
			} else {
				resp.Body.Close()
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return serve.JobSnapshot{}
}

// TestClusterChaosReplicaKill is the acceptance criterion: jobs are
// submitted continuously while a testkit plan kills a replica mid-run
// and restarts it; every accepted job must reach a terminal state, and
// requests routed during the outage must not surface 5xx (the router
// fails them over to ring successors).
func TestClusterChaosReplicaKill(t *testing.T) {
	seed := testkit.SeedFromEnv(42)
	chaos := testkit.NewChaos(seed)
	t.Logf("chaos seed=%d (replay with %s=%d)", seed, testkit.SeedEnv, seed)
	set, _, ts := startCluster(t, 3)

	const windowMs = 1500
	plan := chaos.ReplicaKillPlan(3, 1, windowMs)
	if len(plan) != 1 {
		t.Fatalf("plan = %v", plan)
	}
	kill := plan[0]

	// Chaos executor: kill at AtMs, restart RestartAfterMs later.
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	start := time.Now()
	go func() {
		defer chaosWG.Done()
		time.Sleep(time.Duration(kill.AtMs) * time.Millisecond)
		set.Kill(kill.Replica)
		time.Sleep(time.Duration(kill.RestartAfterMs) * time.Millisecond)
		if err := set.Restart(kill.Replica); err != nil {
			t.Errorf("restart replica %d: %v", kill.Replica, err)
		}
	}()

	// Submit jobs and infers continuously through the whole window.
	var accepted []string
	infer := []byte(`{"model":"model-1","inputs":[[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]]}`)
	serverErrs := 0
	for time.Since(start) < windowMs*time.Millisecond {
		resp, snap := postSim(t, ts.URL, quickClusterSim())
		switch {
		case resp.StatusCode == http.StatusAccepted:
			accepted = append(accepted, snap.ID)
		case resp.StatusCode >= 500:
			serverErrs++
			t.Errorf("sim submission got %d during chaos", resp.StatusCode)
		}
		iresp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(infer))
		if err != nil {
			t.Errorf("infer transport error during chaos: %v", err)
		} else {
			iresp.Body.Close()
			if iresp.StatusCode >= 500 {
				serverErrs++
				t.Errorf("infer got %d during chaos", iresp.StatusCode)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	chaosWG.Wait()
	if len(accepted) == 0 {
		t.Fatal("no jobs accepted during the chaos window")
	}

	// Every accepted job reaches a terminal state — including the ones
	// that were queued or running on the killed replica, which its
	// journal recovery must finish after the restart.
	doneJobs := 0
	for _, id := range accepted {
		snap := waitClusterTerminal(t, ts.URL, id, "", 60*time.Second)
		if snap.State == serve.StateDone {
			doneJobs++
		}
	}
	t.Logf("chaos: %d accepted, %d done, kill=%+v, serverErrs=%d",
		len(accepted), doneJobs, kill, serverErrs)
	if doneJobs == 0 {
		t.Fatal("no job finished successfully across the kill")
	}
	if got := chaos.EventCount("replica-kill"); got != 1 {
		t.Errorf("chaos log has %d replica-kill events, want 1", got)
	}
}

// TestClusterJobSurvivesReplicaRestart pins the durability path without
// racing: submit to a known replica, kill it mid-job, restart, and read
// the finished job back through the router.
func TestClusterJobSurvivesReplicaRestart(t *testing.T) {
	set, rt, ts := startCluster(t, 3)

	// Find an ID owned by replica 0 (names are replica-0..2).
	var id string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("pin-%04d", i)
		if rt.ring.Owner(cand) == "replica-0" {
			id = cand
			break
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim",
		bytes.NewReader(mustJSON(t, quickClusterSim())))
	req.Header.Set(jobIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pinned submit: %d", resp.StatusCode)
	}

	set.Kill(0)
	if err := set.Restart(0); err != nil {
		t.Fatal(err)
	}
	snap := waitClusterTerminal(t, ts.URL, id, "", 60*time.Second)
	if snap.State != serve.StateDone {
		t.Fatalf("recovered job = %s (%s)", snap.State, snap.Error)
	}
	if snap.Result == nil || snap.Result.AvgTemp <= 0 {
		t.Fatalf("recovered job lacks a plausible result: %+v", snap.Result)
	}
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
