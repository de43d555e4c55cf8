package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/npu"
	"repro/internal/testkit"
)

// updateWire regenerates the byte-pinned wire fixtures:
//
//	go test ./internal/serve -run TestWire -update-wire
var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire fixtures")

// volatileKeys are response fields carrying wall-clock measurements or
// batching coincidences. normalizeWire checks each one's value and then
// replaces it, so the pinned bytes cover the deterministic contract: every
// other key, type and value. A number must be non-negative (load at most
// 1, lastCycleUnix an integer) and becomes 0; batchSizes keeps its length,
// one entry per input row, and each entry, an integer >= 1, becomes 1.
var volatileKeys = map[string]bool{
	"queuedMs": true, "runMs": true, "wallUs": true, "deviceLatencyUs": true,
	"load": true, "batchSizes": true, "lastCycleUnix": true,
}

// normalizeWire checks and replaces every volatile field of a JSON
// document, keyed by name at any depth, and returns it indented.
func normalizeWire(body []byte) ([]byte, error) {
	var doc interface{}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("normalizing non-JSON body: %v", err)
	}
	if err := normalizeValue(doc); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// normalizeValue replaces the volatile fields below v in place.
func normalizeValue(v interface{}) error {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, val := range x {
			var err error
			if volatileKeys[k] {
				x[k], err = normalizeVolatile(k, val)
			} else {
				err = normalizeValue(val)
			}
			if err != nil {
				return err
			}
		}
	case []interface{}:
		for _, e := range x {
			if err := normalizeValue(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// normalizeVolatile checks one volatile field and returns its pinned form.
func normalizeVolatile(k string, v interface{}) (interface{}, error) {
	if k == "batchSizes" {
		sizes, ok := v.([]interface{})
		if !ok {
			return nil, fmt.Errorf("volatile %s = %v, want a list", k, v)
		}
		ones := make([]interface{}, len(sizes))
		for i, n := range sizes {
			if f, ok := n.(float64); !ok || f < 1 || f != math.Trunc(f) {
				return nil, fmt.Errorf("volatile %s entry %v, want an integer >= 1", k, n)
			}
			ones[i] = 1
		}
		return ones, nil
	}
	f, ok := v.(float64)
	if !ok || f < 0 || (k == "load" && f > 1) || (k == "lastCycleUnix" && f != math.Trunc(f)) {
		return nil, fmt.Errorf("volatile %s = %v, want a non-negative number "+
			"(load: at most 1; lastCycleUnix: an integer)", k, v)
	}
	return 0, nil
}

// diffWire reports how body differs from want, the pinned bytes of a
// fixture, once its volatile fields are normalized.
func diffWire(body, want []byte) error {
	got, err := normalizeWire(body)
	if err != nil {
		return fmt.Errorf("%v\n%s", err, body)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("wire bytes drifted from the pinned fixture.\n--- got:\n%s--- want:\n%s", got, want)
	}
	return nil
}

// checkWire pins the normalized form of a response body against
// testdata/wire/<fixture>.json.
func checkWire(t *testing.T, fixture string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", fixture+".json")
	if *updateWire {
		got, err := normalizeWire(body)
		if err != nil {
			t.Fatalf("%s: %v\n%s", fixture, err, body)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update-wire to create): %v", path, err)
	}
	if err := diffWire(body, want); err != nil {
		t.Errorf("%s: %v", fixture, err)
	}
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return body
}

func wireGet(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d\n%s", url, resp.StatusCode, wantStatus, body)
	}
	return body
}

// TestWireContract pins the byte shape of every happy-path /v1 response on
// one server with a deterministic request sequence.
func TestWireContract(t *testing.T) {
	_, ts, m := newTestServer(t)

	checkWire(t, "healthz", wireGet(t, ts.URL+"/v1/healthz", http.StatusOK))
	checkWire(t, "models", wireGet(t, ts.URL+"/v1/models", http.StatusOK))

	inputs := make([][]float64, 2)
	for i := range inputs {
		inputs[i] = make([]float64, m.InputDim())
		for j := range inputs[i] {
			inputs[i][j] = 0.1 * float64(i+1)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/infer", map[string]interface{}{
		"model": "model-1", "inputs": inputs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d\n%s", resp.StatusCode, body)
	}
	checkWire(t, "infer", body)

	resp, body = postJSON(t, ts.URL+"/v1/sim", map[string]interface{}{
		"policy": "GTS/ondemand", "duration": 2, "seed": 7,
		"numJobs": 2, "rate": 2, "instrScale": 0.02,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sim: %d\n%s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/j-000001" {
		t.Fatalf("sim Location = %q", loc)
	}
	checkWire(t, "job_accepted", body)

	deadline := time.Now().Add(30 * time.Second)
	for {
		body = wireGet(t, ts.URL+"/v1/jobs/j-000001", http.StatusOK)
		var snap struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.State == "done" {
			break
		}
		if snap.State == "failed" || snap.State == "canceled" || time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkWire(t, "job_done", body)
	checkWire(t, "jobs", wireGet(t, ts.URL+"/v1/jobs", http.StatusOK))

	// No Online config on this server: /v1/online reports the zero status.
	checkWire(t, "online_disabled", wireGet(t, ts.URL+"/v1/online", http.StatusOK))
}

// TestWireOnlineEnabled pins /v1/online for an idle enabled learner: the
// hour-long train interval keeps every counter at zero, so the snapshot is
// fully deterministic.
func TestWireOnlineEnabled(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 32, 8}, 1)
	s := NewServer(Config{ModelsDir: dir, Workers: 1, QueueCap: 4, Online: OnlineConfig{
		Enabled: true, Model: "model-1", Dir: t.TempDir(),
		TrainInterval: time.Hour,
	}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	if s.OnlineManager() == nil {
		t.Fatal("online learner failed to start")
	}
	checkWire(t, "online_enabled", wireGet(t, ts.URL+"/v1/online", http.StatusOK))
}

// TestWireErrorNotFound pins the 404 bodies: an unknown job, and inference
// against a zero-model deployment.
func TestWireErrorNotFound(t *testing.T) {
	_, ts, _ := newTestServer(t)
	checkWire(t, "err_job_not_found",
		wireGet(t, ts.URL+"/v1/jobs/j-999999", http.StatusNotFound))

	// A registry over an empty directory: every model lookup 404s.
	s := NewServer(Config{ModelsDir: t.TempDir(), Workers: 1, QueueCap: 1})
	empty := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		empty.Close()
		s.Shutdown(context.Background())
	})
	resp, body := postJSON(t, empty.URL+"/v1/infer", map[string]interface{}{
		"model": "model-1", "inputs": [][]float64{make([]float64, 21)},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("zero-model infer: %d\n%s", resp.StatusCode, body)
	}
	checkWire(t, "err_model_not_found", body)
}

// TestWireErrorBackpressure pins the 429 body and its Retry-After header:
// a one-worker, one-slot queue is flooded with heavy jobs until it sheds.
func TestWireErrorBackpressure(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 32, 8}, 1)
	s := NewServer(Config{ModelsDir: dir, Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	heavy := map[string]interface{}{
		"policy": "GTS/ondemand", "duration": 3600, "seed": 1,
		"numJobs": 32, "rate": 10, "instrScale": 10,
	}
	for attempt := 0; attempt < 16; attempt++ {
		resp, body := postJSON(t, ts.URL+"/v1/sim", heavy)
		if resp.StatusCode == http.StatusAccepted {
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("flood attempt %d: status %d\n%s", attempt, resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("429 Retry-After = %q, want a positive integer",
				resp.Header.Get("Retry-After"))
		}
		checkWire(t, "err_backpressure", body)
		return
	}
	t.Fatal("queue never shed: no 429 after 16 heavy submissions")
}

// TestWireErrorInferFault pins the 502 body: a chaos backend failing every
// row turns inference into ErrInference, surfaced as Bad Gateway.
func TestWireErrorInferFault(t *testing.T) {
	s, ts, m := newTestServer(t)

	// Plant a batcher over a fault-injecting backend under the server's
	// lock, displacing the registry-built one for model-1.
	ch := testkit.NewChaos(1)
	b := NewBatcher(ch.WrapBackend(npu.New(m), testkit.BackendFaults{RowErrProb: 1}),
		m.InputDim(), BatcherConfig{MaxBatch: 4, QueueCap: 8})
	s.mu.Lock()
	s.batchers["model-1"] = b
	s.mu.Unlock()

	resp, body := postJSON(t, ts.URL+"/v1/infer", map[string]interface{}{
		"model": "model-1", "inputs": [][]float64{make([]float64, m.InputDim())},
	})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("faulted infer: %d\n%s", resp.StatusCode, body)
	}
	checkWire(t, "err_infer_fault", body)
}

// TestWireFixturesCommitted guards against a fixture directory that was
// never generated (each checkWire call would individually fail, but this
// names the full expected set in one place).
func TestWireFixturesCommitted(t *testing.T) {
	want := []string{
		"err_backpressure", "err_infer_fault", "err_job_not_found",
		"err_model_not_found", "healthz", "infer", "job_accepted",
		"job_done", "jobs", "models", "online_disabled", "online_enabled",
	}
	for _, name := range want {
		path := filepath.Join("testdata", "wire", name+".json")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("fixture %s missing: %v", path, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "wire"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("testdata/wire holds %v, want exactly %s.json", names, fmt.Sprint(want))
	}
}
