package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/npu"
)

// newTestServer builds a server over a temp artifacts dir with one model.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *nn.MLP) {
	t.Helper()
	dir := t.TempDir()
	m := writeModel(t, dir, "model-1", []int{21, 32, 8}, 1)
	s := NewServer(Config{
		ModelsDir: dir,
		Workers:   2,
		QueueCap:  8,
		Batch:     BatcherConfig{MaxBatch: 16, QueueCap: 64},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts, m
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestServerHealthAndModels(t *testing.T) {
	_, ts, _ := newTestServer(t)

	var health HealthResponse
	resp := getJSON(t, ts.URL+"/v1/healthz", &health)
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Draining {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}
	if health.Jobs.Cap <= 0 || health.Infer.Cap <= 0 {
		t.Errorf("healthz queue caps not reported: %+v", health)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("no request ID assigned")
	}

	var models struct {
		Models []string `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &models)
	if len(models.Models) != 1 || models.Models[0] != "model-1" {
		t.Errorf("models = %v", models.Models)
	}
}

func TestServerInfer(t *testing.T) {
	_, ts, m := newTestServer(t)
	inputs := testInputs(3, 2)
	resp, body := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "model-1", Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d %s", resp.StatusCode, body)
	}
	var out InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Outputs) != 3 {
		t.Fatalf("%d outputs", len(out.Outputs))
	}
	for i, in := range inputs {
		want := m.Predict(in)
		for o := range want {
			if out.Outputs[i][o] != want[o] {
				t.Fatalf("output %d[%d] = %g, want %g", i, o, out.Outputs[i][o], want[o])
			}
		}
	}
	if out.DeviceLatencyUs <= 0 {
		t.Error("no device latency reported")
	}

	// Error paths: validation problems are 400, a missing model is 404.
	for _, c := range []struct {
		req  InferRequest
		want int
	}{
		{InferRequest{Model: "", Inputs: inputs}, http.StatusBadRequest},
		{InferRequest{Model: "absent", Inputs: inputs}, http.StatusNotFound},
		{InferRequest{Model: "model-1"}, http.StatusBadRequest},
		{InferRequest{Model: "model-1", Inputs: [][]float64{{1, 2}}}, http.StatusBadRequest}, // wrong dim
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/infer", c.req)
		if resp.StatusCode != c.want {
			t.Errorf("request %+v -> %d, want %d", c.req, resp.StatusCode, c.want)
		}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/infer", map[string]string{"bogus": "field"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field -> %d, want 400", resp.StatusCode)
	}
}

// TestServerInferWholeRequest posts a request with more rows than the
// infer queue holds to an idle server: the request is one queue entry, so
// it is admitted whole and served in one device batch, with outputs
// bit-equal to Predict.
func TestServerInferWholeRequest(t *testing.T) {
	s, ts, m := newTestServer(t)
	inputs := testInputs(16*s.cfg.Batch.QueueCap, 11)
	resp, body := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "model-1", Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d-row infer on an idle server: %d %s", len(inputs), resp.StatusCode, body)
	}
	var out InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	checkPredict(t, m, inputs, out.Outputs, "whole request")
	for i, n := range out.BatchSizes {
		if n != len(inputs) {
			t.Fatalf("row %d rode a batch of %d, want all %d rows in one", i, n, len(inputs))
		}
	}
}

// TestServerInferCoalescing is the serve-level form of the acceptance
// criterion: a blocker request holds the only device slot while 15 more
// HTTP clients queue behind it, so 16 requests cost exactly 2 device calls
// and every response equals single-request Predict.
func TestServerInferCoalescing(t *testing.T) {
	s, ts, m := newTestServer(t)

	// Swap in a one-slot counting backend behind the model's batcher.
	backend := &countingBackend{Backend: npu.New(m), release: make(chan struct{})}
	bcfg := s.cfg.Batch
	bcfg.MaxInflight = 1
	b := NewBatcher(backend, m.InputDim(), bcfg)
	s.mu.Lock()
	s.batchers["model-1"] = b
	s.mu.Unlock()

	const clients = 16
	inputs := testInputs(clients, 7)
	outputs := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _ := json.Marshal(InferRequest{Model: "model-1", Inputs: inputs[i : i+1]})
			resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var out InferResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			outputs[i] = out.Outputs[0]
		}()
	}
	post(0)
	waitCalls(t, backend, 1)
	for i := 1; i < clients; i++ {
		post(i)
	}
	waitQueued(t, b, clients, clients-2)
	close(backend.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	checkPredict(t, m, inputs, outputs, "HTTP clients")
	if calls := backend.calls.Load(); calls != 2 {
		t.Fatalf("%d device calls over HTTP for %d requests, want 2", calls, clients)
	}
	if largest := int(b.stats.batchSize.Max()); largest != clients-1 {
		t.Errorf("largest batch %d, want %d", largest, clients-1)
	}
}

func TestServerSimRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t)

	resp, body := postJSON(t, ts.URL+"/v1/sim", quickSim("GTS/ondemand"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	var snap JobSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+snap.ID {
		t.Errorf("Location = %q", loc)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur JobSnapshot
		r := getJSON(t, ts.URL+"/v1/jobs/"+snap.ID, &cur)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d", r.StatusCode)
		}
		if cur.State == StateDone {
			if cur.Result == nil || cur.Result.AvgTemp <= 0 {
				t.Fatalf("done without plausible result: %+v", cur.Result)
			}
			break
		}
		if cur.State == StateFailed || cur.State == StateCanceled {
			t.Fatalf("job ended %q (%s)", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var list struct {
		Jobs []JobSnapshot `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}

	if r := getJSON(t, ts.URL+"/v1/jobs/j-999999", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job -> %d, want 404", r.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sim", SimRequest{Policy: "voodoo"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad policy -> %d, want 400", resp.StatusCode)
	}
}

// TestHealthzRunningFollowsJobs checks the running count of /v1/healthz,
// which the cluster router polls: a long job shows as running, and the
// count returns to zero once DELETE /v1/jobs/{id} has stopped it.
func TestHealthzRunningFollowsJobs(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/sim",
		SimRequest{Policy: "GTS/ondemand", Duration: 86400, NumJobs: 64})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	var snap JobSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	waitRunning := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			var h HealthResponse
			getJSON(t, ts.URL+"/v1/healthz", &h)
			if h.Running == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthz running = %d, want %d", h.Running, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitRunning(1)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", del.StatusCode)
	}
	waitRunning(0)
	var cur JobSnapshot
	getJSON(t, ts.URL+"/v1/jobs/"+snap.ID, &cur)
	if cur.State != StateCanceled {
		t.Errorf("job state after DELETE = %q, want canceled", cur.State)
	}
}

func TestServerShutdownRefusesNewWork(t *testing.T) {
	s, ts, _ := newTestServer(t)
	// Prime the batcher, then shut down.
	postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "model-1", Inputs: testInputs(1, 11)})
	s.Shutdown(context.Background())

	resp, _ := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "model-1", Inputs: testInputs(1, 12)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("infer after shutdown -> %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sim", quickSim("GTS/ondemand"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sim after shutdown -> %d, want 503", resp.StatusCode)
	}
}
