package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/features"
	"repro/internal/online"
	"repro/internal/serve"
)

// defaultInputDim is the feature width of the paper platform (8 cores in
// 2 clusters), used when APIConfig.InputDim is unset.
func defaultInputDim() int { return features.Dim(8, 2) }

// APIConfig points the wire-contract checks at a live serve instance.
type APIConfig struct {
	// BaseURL is the instance root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Model names a registry model used by the infer check; empty skips
	// inference checks.
	Model string
	// InputDim is the model's feature-vector width (the platform default
	// when zero).
	InputDim int
	// Dedicated marks an instance owned by this run. Destructive checks
	// (backpressure flooding) only run against dedicated instances —
	// their applicability boundary excludes shared deployments.
	Dedicated bool
	// Client overrides the HTTP client (default: 30 s timeout).
	Client *http.Client
}

func (c APIConfig) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// APIResult is the outcome of one wire-contract check.
type APIResult struct {
	Check   string `json:"check"`
	OK      bool   `json:"ok"`
	Skipped bool   `json:"skipped,omitempty"`
	Detail  string `json:"detail"`
}

// apiCheck is one named wire-contract probe. It returns a human detail on
// success; skipped marks checks whose applicability boundary excludes this
// configuration (see docs/CONFORMANCE.md).
type apiCheck struct {
	name string
	run  func(ctx context.Context, cfg APIConfig) (detail string, skipped bool, err error)
}

// apiChecks is the ordered check table. Order is fixed so reports are
// deterministic.
var apiChecks = []apiCheck{
	{"healthz", checkHealthz},
	{"models", checkModels},
	{"infer", checkInfer},
	{"sim", checkSim},
	{"jobs", checkJobs},
	{"online", checkOnline},
	{"notFound", checkNotFound},
	{"backpressure", checkBackpressure},
}

// APICheckNames lists every wire-contract check, in execution order.
func APICheckNames() []string {
	names := make([]string, len(apiChecks))
	for i, c := range apiChecks {
		names[i] = c.name
	}
	return names
}

func apiCheckKnown(name string) bool {
	for _, c := range apiChecks {
		if c.name == name {
			return true
		}
	}
	return false
}

// RunAPIChecks executes the named checks (all of them when names is empty)
// against the configured instance, in table order regardless of the input
// order, and returns one result per check.
func RunAPIChecks(ctx context.Context, cfg APIConfig, names []string) []APIResult {
	want := toSet(names)
	var out []APIResult
	for _, c := range apiChecks {
		if len(names) > 0 && !want[c.name] {
			continue
		}
		detail, skipped, err := c.run(ctx, cfg)
		r := APIResult{Check: c.name, OK: err == nil, Skipped: skipped, Detail: detail}
		if err != nil {
			r.Detail = err.Error()
		}
		out = append(out, r)
	}
	return out
}

// send issues one request, with payload (when non-nil) as its JSON body,
// and reads the whole response.
func send(ctx context.Context, cfg APIConfig, method, path string, payload interface{}) ([]byte, *http.Response, error) {
	var rd io.Reader
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, cfg.BaseURL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cfg.client().Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, resp, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return body, resp, nil
}

// call sends one request, requires the status and decodes the response
// exactly into a T (see decodeWire).
func call[T any](ctx context.Context, cfg APIConfig, method, path string, payload interface{}, wantStatus int) (T, *http.Response, error) {
	var v T
	body, resp, err := send(ctx, cfg, method, path, payload)
	if err != nil {
		return v, resp, err
	}
	v, err = decodeStatus[T](method, path, resp, body, wantStatus)
	return v, resp, err
}

// decodeStatus requires the response status and decodes body exactly into
// a T.
func decodeStatus[T any](method, path string, resp *http.Response, body []byte, wantStatus int) (T, error) {
	if resp.StatusCode != wantStatus {
		var zero T
		return zero, fmt.Errorf("%s %s: status %d, want %d (body %.200s)",
			method, path, resp.StatusCode, wantStatus, body)
	}
	v, err := decodeWire[T](body)
	if err != nil {
		return v, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return v, nil
}

// --- the /v1 wire contract ---
//
// The Go types that produce each /v1 body are the only definition of its
// shape: decodeWire accepts a body only if it is exactly what a value of
// that type encodes to. The tables below add the value rules a Go type
// cannot state. They are keyed by JSON key at any depth, and a rule for an
// array's key covers its entries.

// modelsBody, jobsBody and errorBody are the bodies serve writes from maps
// (GET /v1/models, GET /v1/jobs, every error status).
type modelsBody struct {
	Models []string `json:"models"`
}

type jobsBody struct {
	Jobs []serve.JobSnapshot `json:"jobs"`
}

type errorBody struct {
	Error string `json:"error"`
}

// wireEnums lists the values a string key may take.
var wireEnums = map[string][]string{
	"status": {"ok", "draining"},
	"state": {string(serve.StateQueued), string(serve.StateRunning), string(serve.StateDone),
		string(serve.StateFailed), string(serve.StateCanceled)},
}

// wireNonNull names the arrays and maps that are never null and hold no
// null entries.
var wireNonNull = map[string]bool{
	"models": true, "outputs": true, "batchSizes": true, "jobs": true,
}

// wireBounds are the inclusive [min, max] bounds of the numbers under a
// key. Every other number must be non-negative.
var wireBounds = map[string][2]float64{
	"load": {0, 1}, "shadowAgreement": {0, 1}, "batchSizes": {1, math.Inf(1)},
	"core":    {-1, math.Inf(1)},
	"outputs": {math.Inf(-1), math.Inf(1)},
	"avgTemp": {math.Inf(-1), math.Inf(1)}, "peakTemp": {math.Inf(-1), math.Inf(1)},
}

// decodeWire decodes body exactly into a T. The body must be one JSON value
// with no field T lacks, and it must equal, as a JSON tree, what T encodes
// the decoded value back to: so a missing key, a null in place of a value
// or an empty omitempty field fails. The value rules then run on the body.
func decodeWire[T any](body []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, fmt.Errorf("%T: %w", v, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return v, fmt.Errorf("%T: data after the JSON value", v)
	}
	var got, want interface{}
	re, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(body, &got)
	}
	if err == nil {
		err = json.Unmarshal(re, &want)
	}
	if err == nil {
		err = wireDiff(got, want, "$")
	}
	if err == nil {
		err = wireRules(got, "$", "")
	}
	if err != nil {
		return v, fmt.Errorf("%T: %w", v, err)
	}
	return v, nil
}

// wireDiff reports the first place, in sorted key order, where the body got
// differs from want, its re-encoding.
func wireDiff(got, want interface{}, path string) error {
	switch g := got.(type) {
	case map[string]interface{}:
		w, ok := want.(map[string]interface{})
		if !ok {
			break
		}
		for _, k := range sortedKeys(g, w) {
			gv, inGot := g[k]
			wv, inWant := w[k]
			switch {
			case !inGot:
				return fmt.Errorf("%s.%s: missing", path, k)
			case !inWant:
				return fmt.Errorf("%s.%s: omitted when empty, got %s", path, k, jsonText(gv))
			}
			if err := wireDiff(gv, wv, path+"."+k); err != nil {
				return err
			}
		}
		return nil
	case []interface{}:
		w, ok := want.([]interface{})
		if !ok || len(g) != len(w) {
			break
		}
		for i := range g {
			if err := wireDiff(g[i], w[i], fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: got %s, type encodes it as %s", path, jsonText(got), jsonText(want))
	}
	return nil
}

// wireRules checks the value rules on a decoded body; key is the JSON key v
// sits under (an array's entries inherit its key).
func wireRules(v interface{}, path, key string) error {
	switch x := v.(type) {
	case nil:
		if wireNonNull[key] {
			return fmt.Errorf("%s: null", path)
		}
	case string:
		if enum, ok := wireEnums[key]; ok && !slices.Contains(enum, x) {
			return fmt.Errorf("%s: %q is not one of %q", path, x, enum)
		}
	case float64:
		b, ok := wireBounds[key]
		if !ok {
			b = [2]float64{0, math.Inf(1)}
		}
		if x < b[0] || x > b[1] {
			return fmt.Errorf("%s: %g outside [%g, %g]", path, x, b[0], b[1])
		}
	case []interface{}:
		for i, e := range x {
			if err := wireRules(e, fmt.Sprintf("%s[%d]", path, i), key); err != nil {
				return err
			}
		}
	case map[string]interface{}:
		for _, k := range sortedKeys(x, nil) {
			if err := wireRules(x[k], path+"."+k, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedKeys returns the union of two objects' keys, sorted.
func sortedKeys(a, b map[string]interface{}) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// jsonText renders a decoded value compactly for error messages.
func jsonText(v interface{}) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// --- individual checks ---

func checkHealthz(ctx context.Context, cfg APIConfig) (string, bool, error) {
	h, _, err := call[serve.HealthResponse](ctx, cfg, http.MethodGet, "/v1/healthz", nil, http.StatusOK)
	if err != nil {
		return "", false, err
	}
	return "status " + h.Status, false, nil
}

func checkModels(ctx context.Context, cfg APIConfig) (string, bool, error) {
	m, _, err := call[modelsBody](ctx, cfg, http.MethodGet, "/v1/models", nil, http.StatusOK)
	if err != nil {
		return "", false, err
	}
	if cfg.Model != "" && !slices.Contains(m.Models, cfg.Model) {
		return "", false, fmt.Errorf("model %q not in registry listing %v", cfg.Model, m.Models)
	}
	return fmt.Sprintf("%d model(s)", len(m.Models)), false, nil
}

func checkInfer(ctx context.Context, cfg APIConfig) (string, bool, error) {
	if cfg.Model == "" {
		return "no model configured", true, nil
	}
	dim := cfg.InputDim
	if dim <= 0 {
		dim = defaultInputDim()
	}
	reqBody := serve.InferRequest{
		Model:  cfg.Model,
		Inputs: [][]float64{make([]float64, dim), make([]float64, dim)},
	}
	resp, _, err := call[serve.InferResponse](ctx, cfg, http.MethodPost, "/v1/infer", reqBody, http.StatusOK)
	if err != nil {
		return "", false, err
	}
	if len(resp.Outputs) != 2 {
		return "", false, fmt.Errorf("2 input rows produced %d output rows", len(resp.Outputs))
	}
	if len(resp.BatchSizes) != 2 {
		return "", false, fmt.Errorf("2 input rows produced %d batchSizes entries", len(resp.BatchSizes))
	}
	return "2 rows inferred", false, nil
}

// simRequest is the quick deterministic job the sim/jobs/backpressure
// checks submit: a governor policy, so no model artifact is required.
func simRequest(duration float64) map[string]interface{} {
	return map[string]interface{}{
		"policy":     "GTS/ondemand",
		"duration":   duration,
		"numJobs":    2,
		"rate":       2,
		"instrScale": 0.02,
	}
}

// floodRequest is the backpressure payload: many long applications, so the
// simulated run keeps a worker busy for seconds of wall time (a light job
// list would finish at e.Done almost instantly and the queue would never
// fill).
func floodRequest() map[string]interface{} {
	return map[string]interface{}{
		"policy":     "GTS/ondemand",
		"duration":   3600,
		"numJobs":    32,
		"rate":       10,
		"instrScale": 10,
	}
}

func checkSim(ctx context.Context, cfg APIConfig) (string, bool, error) {
	snap, resp, err := call[serve.JobSnapshot](ctx, cfg, http.MethodPost, "/v1/sim", simRequest(2), http.StatusAccepted)
	if err != nil {
		return "", false, err
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		return "", false, fmt.Errorf("202 Location %q does not point at /v1/jobs/", loc)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _, err := call[serve.JobSnapshot](ctx, cfg, http.MethodGet, "/v1/jobs/"+snap.ID, nil, http.StatusOK)
		if err != nil {
			return "", false, err
		}
		switch cur.State {
		case serve.StateDone:
			if cur.Result == nil {
				return "", false, fmt.Errorf("job %s done without a result", snap.ID)
			}
			return "job " + snap.ID + " done", false, nil
		case serve.StateFailed, serve.StateCanceled:
			return "", false, fmt.Errorf("job %s ended %s: %s", snap.ID, cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			return "", false, fmt.Errorf("job %s still %s after 60s", snap.ID, cur.State)
		}
		select {
		case <-ctx.Done():
			return "", false, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func checkJobs(ctx context.Context, cfg APIConfig) (string, bool, error) {
	resp, _, err := call[jobsBody](ctx, cfg, http.MethodGet, "/v1/jobs", nil, http.StatusOK)
	if err != nil {
		return "", false, err
	}
	return fmt.Sprintf("%d job(s) listed", len(resp.Jobs)), false, nil
}

func checkOnline(ctx context.Context, cfg APIConfig) (string, bool, error) {
	st, _, err := call[online.Status](ctx, cfg, http.MethodGet, "/v1/online", nil, http.StatusOK)
	if err != nil {
		return "", false, err
	}
	if !st.Enabled {
		return "continual learning disabled", false, nil
	}
	return fmt.Sprintf("model %q active v%d", st.Model, st.ActiveVersion), false, nil
}

func checkNotFound(ctx context.Context, cfg APIConfig) (string, bool, error) {
	if _, _, err := call[errorBody](ctx, cfg, http.MethodGet, "/v1/jobs/conformance-no-such-job",
		nil, http.StatusNotFound); err != nil {
		return "", false, err
	}
	return "404 body conforms", false, nil
}

// checkBackpressure floods POST /v1/sim with long jobs until the instance
// sheds with 429, then validates the error body and Retry-After header and
// cancels everything it submitted. Applicability boundary: dedicated
// instances only — flooding a shared deployment would shed real traffic.
func checkBackpressure(ctx context.Context, cfg APIConfig) (string, bool, error) {
	if !cfg.Dedicated {
		return "requires a dedicated instance (would shed real traffic)", true, nil
	}
	var accepted []string
	defer func() {
		for _, id := range accepted {
			// Best-effort: a job whose cancel fails still ends at its duration cap.
			_, _, _ = send(ctx, cfg, http.MethodDelete, "/v1/jobs/"+id, nil)
		}
	}()
	for attempt := 0; attempt < 64; attempt++ {
		body, resp, err := send(ctx, cfg, http.MethodPost, "/v1/sim", floodRequest())
		if err != nil {
			return "", false, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if _, err := decodeWire[errorBody](body); err != nil {
				return "", false, fmt.Errorf("429 body: %w", err)
			}
			ra := resp.Header.Get("Retry-After")
			secs, convErr := strconv.Atoi(ra)
			if convErr != nil || secs < 1 {
				return "", false, fmt.Errorf("429 Retry-After %q is not a positive integer", ra)
			}
			return fmt.Sprintf("shed after %d accepted job(s), Retry-After %ds",
				len(accepted), secs), false, nil
		}
		snap, err := decodeStatus[serve.JobSnapshot](http.MethodPost, "/v1/sim", resp, body, http.StatusAccepted)
		if err != nil {
			return "", false, err
		}
		accepted = append(accepted, snap.ID)
	}
	return "", false, fmt.Errorf("no 429 after 64 long submissions — queue bound not enforced?")
}
