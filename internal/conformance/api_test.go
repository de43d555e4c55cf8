package conformance

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
)

// bootAPIServer runs a real serve instance with one saved model and a
// deliberately tiny job queue, so the backpressure check sheds after a
// handful of heavy submissions.
func bootAPIServer(t *testing.T) APIConfig {
	t.Helper()
	dir := t.TempDir()
	m := nn.NewMLP([]int{defaultInputDim(), 16, 8}, 1)
	if err := core.SaveModel(m, filepath.Join(dir, "model-1.json")); err != nil {
		t.Fatal(err)
	}
	s := serve.NewServer(serve.Config{ModelsDir: dir, Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return APIConfig{
		BaseURL:   ts.URL,
		Model:     "model-1",
		InputDim:  m.InputDim(),
		Dedicated: true,
	}
}

func resultMap(t *testing.T, results []APIResult) map[string]APIResult {
	t.Helper()
	out := make(map[string]APIResult, len(results))
	for _, r := range results {
		if _, dup := out[r.Check]; dup {
			t.Fatalf("duplicate result for check %q", r.Check)
		}
		out[r.Check] = r
	}
	return out
}

// TestRunAPIChecksAll drives every wire-contract check against a live
// instance; each must pass (none skipped on a dedicated server with a
// model).
func TestRunAPIChecksAll(t *testing.T) {
	cfg := bootAPIServer(t)
	results := RunAPIChecks(context.Background(), cfg, nil)
	if len(results) != len(APICheckNames()) {
		t.Fatalf("got %d results, want %d", len(results), len(APICheckNames()))
	}
	for i, r := range results {
		if r.Check != APICheckNames()[i] {
			t.Errorf("result %d is %q, want %q (table order)", i, r.Check, APICheckNames()[i])
		}
		if !r.OK || r.Skipped {
			t.Errorf("check %s: ok=%v skipped=%v detail=%s", r.Check, r.OK, r.Skipped, r.Detail)
		}
	}
}

// TestRunAPIChecksSubset runs a named subset; unrequested checks must not
// appear, and order stays the table's regardless of the input order.
func TestRunAPIChecksSubset(t *testing.T) {
	cfg := bootAPIServer(t)
	results := RunAPIChecks(context.Background(), cfg, []string{"models", "healthz"})
	if len(results) != 2 || results[0].Check != "healthz" || results[1].Check != "models" {
		t.Fatalf("subset results = %+v", results)
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("check %s failed: %s", r.Check, r.Detail)
		}
	}
}

// TestRunAPIChecksBoundaries pins the applicability boundaries: no model
// skips the inference check, a shared (non-dedicated) instance skips the
// destructive backpressure flood.
func TestRunAPIChecksBoundaries(t *testing.T) {
	cfg := bootAPIServer(t)
	cfg.Dedicated = false
	m := resultMap(t, RunAPIChecks(context.Background(), cfg, []string{"backpressure"}))
	if r := m["backpressure"]; !r.Skipped || !r.OK {
		t.Errorf("backpressure on shared instance = %+v, want skipped", r)
	}

	cfg2 := bootAPIServer(t)
	cfg2.Model = ""
	m = resultMap(t, RunAPIChecks(context.Background(), cfg2, []string{"infer"}))
	if r := m["infer"]; !r.Skipped || !r.OK {
		t.Errorf("infer without a model = %+v, want skipped", r)
	}
}

// TestRunAPIChecksSchemaViolation points the checks at a server whose
// responses are valid JSON but match no /v1 response type: every check
// must fail (not panic, not pass).
func TestRunAPIChecksSchemaViolation(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"unexpected": true}`))
	}))
	t.Cleanup(bad.Close)
	cfg := APIConfig{BaseURL: bad.URL, Model: "model-1", Dedicated: true}
	for _, r := range RunAPIChecks(context.Background(), cfg, nil) {
		if r.OK && !r.Skipped {
			t.Errorf("check %s passed against a schema-violating server: %s", r.Check, r.Detail)
		}
	}
}

// TestRunAPIChecksInferRowCounts points the infer check at a server whose
// bodies are well-formed InferResponses: it passes only when there is one
// output row and one batchSizes entry per input row.
func TestRunAPIChecksInferRowCounts(t *testing.T) {
	cases := []struct {
		name, body, want string // want: failure detail substring; empty passes
	}{
		{"one-per-row", `{"model":"model-1","outputs":[[0],[0]],"batchSizes":[2,2],"deviceLatencyUs":0,"wallUs":0}`, ""},
		{"missing-output", `{"model":"model-1","outputs":[[0]],"batchSizes":[1,1],"deviceLatencyUs":0,"wallUs":0}`,
			"produced 1 output rows"},
		{"missing-batch-size", `{"model":"model-1","outputs":[[0],[0]],"batchSizes":[2],"deviceLatencyUs":0,"wallUs":0}`,
			"produced 1 batchSizes entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(tc.body))
			}))
			t.Cleanup(fake.Close)
			cfg := APIConfig{BaseURL: fake.URL, Model: "model-1"}
			r := RunAPIChecks(context.Background(), cfg, []string{"infer"})[0]
			if tc.want == "" {
				if !r.OK {
					t.Fatalf("infer check failed: %s", r.Detail)
				}
				return
			}
			if r.OK || !strings.Contains(r.Detail, tc.want) {
				t.Fatalf("infer check = %+v, want a failure containing %q", r, tc.want)
			}
		})
	}
}

// TestSeedPackagesRequestEveryCheck: taken together, the committed seed
// packages request every wire-contract check, so a package run against a
// serve instance covers the whole /v1 contract.
func TestSeedPackagesRequestEveryCheck(t *testing.T) {
	pkgs, err := LoadDir(filepath.Join("..", "..", "testdata", "packages"))
	if err != nil {
		t.Fatal(err)
	}
	requested := map[string]bool{}
	for _, p := range pkgs {
		for _, c := range p.Manifest.APIChecks {
			requested[c] = true
		}
	}
	for _, name := range APICheckNames() {
		if !requested[name] {
			t.Errorf("no seed package under testdata/packages requests api check %q", name)
		}
	}
}

// TestRunAPIChecksDown points the checks at a closed port: every check
// fails with a transport error.
func TestRunAPIChecksDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cfg := APIConfig{BaseURL: dead.URL, Model: "model-1", Dedicated: true}
	for _, r := range RunAPIChecks(context.Background(), cfg, []string{"healthz", "models"}) {
		if r.OK {
			t.Errorf("check %s passed against a dead server", r.Check)
		}
		if r.Detail == "" {
			t.Errorf("check %s carries no failure detail", r.Check)
		}
	}
}

// TestRunUnknownCheckName: unknown names are rejected at manifest load; at
// the API layer they are simply ignored, never invented.
func TestRunUnknownCheckName(t *testing.T) {
	cfg := bootAPIServer(t)
	results := RunAPIChecks(context.Background(), cfg, []string{"healthz", "no-such-check"})
	if len(results) != 1 || results[0].Check != "healthz" {
		t.Fatalf("results = %+v, want healthz only", results)
	}
	if apiCheckKnown("no-such-check") {
		t.Error("apiCheckKnown accepted an unknown name")
	}
}
