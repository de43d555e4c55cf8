package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// promSample matches one Prometheus text-format sample line.
var promSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*")*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$`)

// TestMetricsEndpoint drives a known request sequence and reads every
// serving number it produced from GET /metrics, the one serving-stats
// surface: the request counters by route and status class, the latency
// histogram, the batcher's rows and batches, and the job pool's gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, m := newTestServer(t)
	in := make([]float64, m.InputDim())
	// Three sequential requests, 4 rows: each rides its own batch.
	for _, rows := range []int{2, 1, 1} {
		inputs := make([][]float64, rows)
		for i := range inputs {
			inputs[i] = in
		}
		postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "model-1", Inputs: inputs})
	}
	getJSON(t, ts.URL+"/v1/jobs/j-404404", nil)
	postJSON(t, ts.URL+"/v1/sim", SimRequest{Policy: "GTS/powersave", Duration: 0.2})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("invalid Prometheus sample line: %q", line)
			continue
		}
		sp := strings.LastIndex(line, " ")
		series[line[:sp]] = line[sp+1:]
	}
	if len(series) < 15 {
		t.Fatalf("GET /metrics serves %d distinct series, want >= 15:\n%s", len(series), body)
	}
	for _, want := range []string{
		"serve_uptime_seconds",
		"serve_jobs_submitted_total",
		"serve_jobs_queue_depth",
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("missing series %q in /metrics:\n%s", want, body)
		}
	}
	for name, want := range map[string]string{
		`http_requests_total{route="POST /v1/infer",class="2xx"}`:        "3",
		`http_request_duration_seconds_count{route="POST /v1/infer"}`:    "3",
		`http_requests_total{route="GET /v1/jobs/{id}",class="4xx"}`:     "1",
		`http_request_duration_seconds_count{route="GET /v1/jobs/{id}"}`: "1",
		`serve_batcher_requests_total{model="model-1"}`:                  "4",
		`serve_batcher_batch_size_count{model="model-1"}`:                "3",
		`serve_batcher_batch_size_sum{model="model-1"}`:                  "4",
		`serve_batcher_batch_size_bucket{model="model-1",le="2"}`:        "3",
		`serve_batcher_batch_size_bucket{model="model-1",le="1"}`:        "2",
		`serve_batcher_rejected_total{model="model-1"}`:                  "0",
		`serve_jobs_workers`:         "2",
		`serve_jobs_queue_cap`:       "8",
		`serve_jobs_submitted_total`: "1",
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %q (present %v), want %s", name, got, ok, want)
		}
	}
	if v, err := strconv.ParseFloat(series[`http_request_duration_seconds_sum{route="POST /v1/infer"}`], 64); err != nil || v <= 0 {
		t.Errorf("POST /v1/infer latency sum = %v (%v), want > 0", v, err)
	}

	// JSON dump variant.
	var fams []map[string]any
	r2 := getJSON(t, ts.URL+"/metrics?format=json", &fams)
	if r2.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("json format Content-Type = %q", r2.Header.Get("Content-Type"))
	}
	if len(fams) == 0 {
		t.Fatal("JSON metrics dump empty")
	}
}

// TestStatsRouteRetired pins that GET /v1/stats is gone: every serving
// number it used to rebuild is a registry family on GET /metrics.
func TestStatsRouteRetired(t *testing.T) {
	_, ts, _ := newTestServer(t)
	if r := getJSON(t, ts.URL+"/v1/stats", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats -> %d, want 404", r.StatusCode)
	}
}

func TestTraceEndpointServesRequestSpans(t *testing.T) {
	_, ts, _ := newTestServer(t)
	getJSON(t, ts.URL+"/v1/healthz", nil)
	getJSON(t, ts.URL+"/v1/models", nil)

	var events []map[string]any
	getJSON(t, ts.URL+"/v1/trace", &events)
	var names []string
	for _, ev := range events {
		if ev["ph"] == "X" {
			names = append(names, ev["name"].(string))
		}
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "GET /v1/healthz") || !strings.Contains(joined, "GET /v1/models") {
		t.Fatalf("trace missing request spans: %v", names)
	}
}

func TestPprofOptIn(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 32, 8}, 1)

	// Off by default.
	s := NewServer(Config{ModelsDir: dir, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without EnablePprof")
	}
	ts.Close()
	s.Shutdown(context.Background())

	// Mounted when enabled.
	s2 := NewServer(Config{ModelsDir: dir, Workers: 1, EnablePprof: true})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Shutdown(context.Background())
	}()
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index not served when enabled: %d", resp2.StatusCode)
	}
}

// TestSharedTelemetryRegistry checks a caller-supplied registry receives
// the server's families (the topil-serve wiring).
func TestSharedTelemetryRegistry(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 32, 8}, 1)
	reg := telemetry.NewRegistry()
	s := NewServer(Config{ModelsDir: dir, Workers: 1, Telemetry: reg})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()
	if s.Telemetry() != reg {
		t.Fatal("Telemetry() must return the injected registry")
	}
	getJSON(t, ts.URL+"/v1/healthz", nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sb.String(), `http_requests_total{route="GET /v1/healthz",class="2xx"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("injected registry missing request counter:\n%s", sb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
