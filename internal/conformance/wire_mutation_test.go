package conformance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/online"
	"repro/internal/serve"
)

// wireFixtures maps every byte-pinned /v1 fixture of internal/serve to the
// decoder its live check uses.
var wireFixtures = []struct {
	name   string
	decode func([]byte) error
}{
	{"err_backpressure", decodeAs[errorBody]},
	{"err_infer_fault", decodeAs[errorBody]},
	{"err_job_not_found", decodeAs[errorBody]},
	{"err_model_not_found", decodeAs[errorBody]},
	{"healthz", decodeAs[serve.HealthResponse]},
	{"infer", decodeAs[serve.InferResponse]},
	{"job_accepted", decodeAs[serve.JobSnapshot]},
	{"job_done", decodeAs[serve.JobSnapshot]},
	{"jobs", decodeAs[jobsBody]},
	{"models", decodeAs[modelsBody]},
	{"online_disabled", decodeAs[online.Status]},
	{"online_enabled", decodeAs[online.Status]},
}

func decodeAs[T any](body []byte) error {
	_, err := decodeWire[T](body)
	return err
}

// loadWireFixture reads a pinned fixture. The fixtures zero batchSizes to
// an empty list, so the infer body gets one batch size per output row back.
func loadWireFixture(t *testing.T, name string) interface{} {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "wire", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if name == "infer" {
		doc.(map[string]interface{})["batchSizes"] = []interface{}{1.0, 1.0}
	}
	return doc
}

// mutationValues replace each value of a fixture in turn.
var mutationValues = []interface{}{
	"x", true, 1.5, -1.0, 0.0, 2.0, nil, map[string]interface{}{}, []interface{}{},
}

type wireMutation struct {
	name string // e.g. "set $.jobs.cap=-1", "del $.load", "add $.jobs.zz"
	doc  interface{}
}

// mutateWire returns every single-point mutation of a decoded JSON
// document below path: each object key deleted, a "zz" key added to each
// object, and each value below the root replaced by each mutationValues
// entry. Subtrees are shared, never modified.
func mutateWire(v interface{}, path string) []wireMutation {
	var out []wireMutation
	switch x := v.(type) {
	case map[string]interface{}:
		with := func(k string, nv interface{}, del bool) map[string]interface{} {
			c := make(map[string]interface{}, len(x)+1)
			for kk, vv := range x {
				c[kk] = vv
			}
			if del {
				delete(c, k)
			} else {
				c[k] = nv
			}
			return c
		}
		for _, k := range sortedKeys(x, nil) {
			p := path + "." + k
			out = append(out, wireMutation{"del " + p, with(k, nil, true)})
			for _, r := range mutationValues {
				out = append(out, wireMutation{"set " + p + "=" + jsonText(r), with(k, r, false)})
			}
			for _, m := range mutateWire(x[k], p) {
				out = append(out, wireMutation{m.name, with(k, m.doc, false)})
			}
		}
		out = append(out, wireMutation{"add " + path + ".zz", with("zz", 0.0, false)})
	case []interface{}:
		with := func(i int, nv interface{}) []interface{} {
			c := append([]interface{}(nil), x...)
			c[i] = nv
			return c
		}
		for i, e := range x {
			p := fmt.Sprintf("%s[%d]", path, i)
			for _, r := range mutationValues {
				out = append(out, wireMutation{"set " + p + "=" + jsonText(r), with(i, r)})
			}
			for _, m := range mutateWire(e, p) {
				out = append(out, wireMutation{m.name, with(i, m.doc)})
			}
		}
	}
	return out
}

// TestWireMutationParity pins the /v1 contract's strictness. Every
// single-point mutation of every pinned fixture must be rejected unless
// testdata/schema_accepted_mutations.txt lists it. That file is the set of
// mutations the package's former JSON Schemas accepted, so this path
// rejects everything they rejected. It must also accept every listed
// mutation, except under job entries of GET /v1/jobs, where the schemas
// left "result" untyped. Loosening or removing any value rule accepts a
// mutation the schemas rejected; tightening one rejects a valid body.
func TestWireMutationParity(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "schema_accepted_mutations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			listed[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	total, rejected, extra := 0, 0, 0
	seen := map[string]bool{}
	for _, fx := range wireFixtures {
		doc := loadWireFixture(t, fx.name)
		if err := fx.decode([]byte(jsonText(doc))); err != nil {
			t.Fatalf("fixture %s rejected: %v", fx.name, err)
		}
		for _, m := range mutateWire(doc, "$") {
			name := fx.name + " " + m.name
			seen[name] = true
			total++
			err := fx.decode([]byte(jsonText(m.doc)))
			if err != nil {
				rejected++
			}
			switch {
			case err == nil && !listed[name]:
				t.Errorf("%s: accepted, but the schemas rejected it", name)
			case err != nil && listed[name]:
				if fx.name == "jobs" && strings.Contains(m.name, " $.jobs[0].result") {
					extra++
					continue
				}
				t.Errorf("%s: valid body rejected: %v", name, err)
			}
		}
	}
	for name := range listed {
		if !seen[name] {
			t.Errorf("listed mutation %q is no longer generated", name)
		}
	}
	t.Logf("%d mutations: %d rejected (%d beyond the schemas, in /v1/jobs results), %d accepted",
		total, rejected, extra, total-rejected)
}

// TestDecodeWireRules pins each exact-decode failure and each kind of
// value rule with one body that only it rejects.
func TestDecodeWireRules(t *testing.T) {
	health := func(status string, load float64) string {
		return fmt.Sprintf(`{"status":%q,"draining":false,"jobs":{"depth":0,"cap":1},`+
			`"infer":{"depth":0,"cap":1},"running":0,"load":%g}`, status, load)
	}
	job := func(extra string) string {
		return `{"id":"j","state":"done","policy":"p",` + extra + `"queuedMs":0,"runMs":0}`
	}
	cases := []struct {
		name, body, want string
		decode           func([]byte) error
	}{
		{"valid", health("ok", 1), "", decodeAs[serve.HealthResponse]},
		{"not-json", `{`, "unexpected EOF", decodeAs[serve.HealthResponse]},
		{"trailing-data", `{"error":"e"} {}`, "data after the JSON value", decodeAs[errorBody]},
		{"extra-prop", `{"error":"e","zz":0}`, `unknown field "zz"`, decodeAs[errorBody]},
		{"wrong-type", `{"error":1}`, "cannot unmarshal number", decodeAs[errorBody]},
		{"bad-item", `{"models":["a",3]}`, "cannot unmarshal number", decodeAs[modelsBody]},
		{"not-integer", strings.Replace(health("ok", 0), `"running":0`, `"running":1.5`, 1),
			"cannot unmarshal number 1.5", decodeAs[serve.HealthResponse]},
		{"missing-required", `{}`, "$.error: missing", decodeAs[errorBody]},
		{"null-value", `{"error":null}`, `$.error: got null`, decodeAs[errorBody]},
		{"empty-omitempty", job(`"model":"",`), "$.model: omitted when empty", decodeAs[serve.JobSnapshot]},
		{"bad-enum", health("up", 0), `$.status: "up" is not one of`, decodeAs[serve.HealthResponse]},
		{"above-max", health("ok", 1.5), "$.load: 1.5 outside [0, 1]", decodeAs[serve.HealthResponse]},
		{"below-min", strings.Replace(job(""), `"queuedMs":0`, `"queuedMs":-1`, 1),
			"$.queuedMs: -1 outside [0, +Inf]", decodeAs[serve.JobSnapshot]},
		{"null-list", `{"models":null}`, "$.models: null", decodeAs[modelsBody]},
		{"null-row", `{"model":"m","outputs":[null],"batchSizes":[1],"deviceLatencyUs":0,"wallUs":0}`,
			"$.outputs[0]: null", decodeAs[serve.InferResponse]},
		{"zero-batch", `{"model":"m","outputs":[[-3]],"batchSizes":[0],"deviceLatencyUs":0,"wallUs":0}`,
			"$.batchSizes[0]: 0 outside [1, +Inf]", decodeAs[serve.InferResponse]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode([]byte(tc.body))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid body rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestWireDiff pins the JSON tree comparison behind the re-encode check:
// numbers compare by value and keys in any order, and the first
// difference is named by its path.
func TestWireDiff(t *testing.T) {
	parse := func(doc string) interface{} {
		var v interface{}
		if err := json.Unmarshal([]byte(doc), &v); err != nil {
			t.Fatalf("parsing %s: %v", doc, err)
		}
		return v
	}
	cases := []struct {
		got, want string
		diff      string // substring of the error; empty means equal
	}{
		{`1`, `1.0`, ""},
		{`1`, `2`, "$: got 1, type encodes it as 2"},
		{`1`, `"1"`, "$: got 1"},
		{`"x"`, `"x"`, ""},
		{`true`, `false`, "$: got true"},
		{`null`, `null`, ""},
		{`null`, `0`, "$: got null"},
		{`[1, 2]`, `[1, 2.0]`, ""},
		{`[1, 2]`, `[2, 1]`, "$[0]: got 1"},
		{`[1]`, `[1, 1]`, "$: got [1]"},
		{`{"a": 1, "b": [true]}`, `{"b": [true], "a": 1}`, ""},
		{`{"a": 1}`, `{"a": 2}`, "$.a: got 1"},
		{`{"a": 1}`, `{"a": 1, "b": 2}`, "$.b: missing"},
		{`{"a": 1, "b": ""}`, `{"a": 1}`, `$.b: omitted when empty, got ""`},
		{`{"a": 1}`, `[1]`, `$: got {"a":1}`},
	}
	for _, c := range cases {
		err := wireDiff(parse(c.got), parse(c.want), "$")
		switch {
		case c.diff == "" && err != nil:
			t.Errorf("wireDiff(%s, %s) = %v, want equal", c.got, c.want, err)
		case c.diff != "" && (err == nil || !strings.Contains(err.Error(), c.diff)):
			t.Errorf("wireDiff(%s, %s) = %v, want %q", c.got, c.want, err, c.diff)
		}
	}
}
