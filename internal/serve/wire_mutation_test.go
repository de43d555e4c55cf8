package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mutationValues replace each value of a fixture in turn.
var mutationValues = []interface{}{
	"x", true, 1.5, -1.0, 0.0, 2.0, nil, map[string]interface{}{}, []interface{}{},
}

type wireMutation struct {
	name string // e.g. "set $.jobs.cap=-1", "del $.load", "add $.jobs.zz"
	doc  interface{}
}

// jsonText renders a decoded value compactly.
func jsonText(v interface{}) string {
	b, _ := json.Marshal(v)
	return string(b)
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
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
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

// TestWireMutationParity pins how strict the fixture check is. Every
// single-point mutation of every pinned fixture must fail diffWire unless
// testdata/schema_accepted_mutations.txt lists it. That file is the set of
// mutations the JSON Schemas this repository once embedded accepted, so
// the fixture check rejects everything they rejected. A listed mutation
// may pass or fail: the byte check fails most of them. Loosening a
// volatile field's check (load's bound, the batchSizes length) lets an
// unlisted mutation or a fixture drift through.
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

	entries, err := os.ReadDir(filepath.Join("testdata", "wire"))
	if err != nil {
		t.Fatal(err)
	}
	total, rejected, listedAccepted, listedRejected := 0, 0, 0, 0
	seen := map[string]bool{}
	for _, e := range entries {
		fixture := strings.TrimSuffix(e.Name(), ".json")
		want, err := os.ReadFile(filepath.Join("testdata", "wire", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := diffWire(want, want); err != nil {
			t.Fatalf("fixture %s rejected: %v", fixture, err)
		}
		var doc interface{}
		if err := json.Unmarshal(want, &doc); err != nil {
			t.Fatal(err)
		}
		for _, m := range mutateWire(doc, "$") {
			name := fixture + " " + m.name
			seen[name] = true
			total++
			err := diffWire([]byte(jsonText(m.doc)), want)
			switch {
			case err != nil && listed[name]:
				listedRejected++
			case err != nil:
				rejected++
			case listed[name]:
				listedAccepted++
			default:
				t.Errorf("%s: accepted, but the schemas rejected it", name)
			}
		}
	}
	for name := range listed {
		if !seen[name] {
			t.Errorf("listed mutation %q is no longer generated", name)
		}
	}
	t.Logf("%d mutations: %d unlisted ones rejected; of the %d listed, %d accepted and %d rejected",
		total, rejected, len(listed), listedAccepted, listedRejected)
}
