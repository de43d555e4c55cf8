package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/npu"
	"repro/internal/scenario"
)

// goodManifest is a minimal valid package manifest used as the base of the
// negative-path table; each test case perturbs one aspect of it.
const goodManifest = `{
  "schemaVersion": 3,
  "name": "demo",
  "description": "negative-path base",
  "scenarios": [
    {
      "name": "quick",
      "duration": 10,
      "techniques": ["GTS/ondemand"],
      "envelopes": [
        {
          "metric": "peakTempC",
          "technique": "GTS/ondemand",
          "min": 20,
          "max": 120,
          "boundary": "seed 1, 8 generated jobs, fan on"
        }
      ]
    }
  ]
}`

func TestParseManifestAcceptsGood(t *testing.T) {
	m, diags := ParseManifest("manifest.json", []byte(goodManifest))
	if len(diags) > 0 {
		t.Fatalf("valid manifest rejected: %v", diagList(diags))
	}
	if m.Name != "demo" || len(m.Scenarios) != 1 {
		t.Fatalf("decoded manifest %+v", m)
	}
	sc := m.Scenarios[0]
	if b := sc.backends(); len(b) != 1 || b[0] != "npu" {
		t.Fatalf("backends = %v, want the npu default", b)
	}
	run := sc.run("GTS/ondemand", "-")
	if run.Policy != "GTS/ondemand" || run.Duration != 10 || run.Seed != 1 || run.NumJobs != 8 {
		t.Fatalf("cell run = %+v", run)
	}
}

func TestParseManifestNegativePaths(t *testing.T) {
	cases := []struct {
		name string
		doc  string // full doc, or a replacement applied to goodManifest
		old  string
		want []string // substrings of the joined diagnostics
	}{
		{
			name: "torn-file",
			doc:  goodManifest[:len(goodManifest)/2],
			want: []string{"manifest.json:", "unexpected EOF"},
		},
		{
			name: "trailing-data",
			doc:  goodManifest + "\n{\"second\": true}",
			want: []string{"trailing data after the manifest object"},
		},
		{
			name: "unknown-field",
			old:  `"description": "negative-path base",`,
			doc:  `"description": "x", "bogusField": 1,`,
			want: []string{`unknown field "bogusField"`},
		},
		{
			name: "unknown-schema-version",
			old:  `"schemaVersion": 3`,
			doc:  `"schemaVersion": 99`,
			want: []string{"unknown schema version 99", "reads version 3"},
		},
		{
			// Version 2 let a package request live /v1 checks; the
			// field is gone, so such a manifest fails strict decoding.
			name: "v2-api-checks",
			old:  `"schemaVersion": 3,`,
			doc:  `"schemaVersion": 2, "apiChecks": ["healthz"],`,
			want: []string{`manifest.json:2: manifest: json: unknown field "apiChecks"`},
		},
		{
			name: "bad-package-name",
			old:  `"name": "demo"`,
			doc:  `"name": "Demo Pkg"`,
			want: []string{`package name "Demo Pkg" must be non-empty lowercase`},
		},
		{
			name: "dot-package-name",
			old:  `"name": "demo"`,
			doc:  `"name": ".."`,
			want: []string{`package name ".." must be non-empty lowercase`},
		},
		{
			name: "dot-scenario-name",
			old:  `"name": "quick"`,
			doc:  `"name": "a.b"`,
			want: []string{"scenarios[0]", `scenario name "a.b" must be non-empty lowercase`},
		},
		{
			name: "no-scenarios",
			old: `"scenarios": [
    {
      "name": "quick",
      "duration": 10,
      "techniques": ["GTS/ondemand"],
      "envelopes": [
        {
          "metric": "peakTempC",
          "technique": "GTS/ondemand",
          "min": 20,
          "max": 120,
          "boundary": "seed 1, 8 generated jobs, fan on"
        }
      ]
    }
  ]`,
			doc:  `"scenarios": []`,
			want: []string{"package has no scenarios"},
		},
		{
			name: "bad-duration",
			old:  `"duration": 10`,
			doc:  `"duration": -3`,
			want: []string{"scenarios[0]", "duration -3 s out of range"},
		},
		{
			// Policy and backend come from techniques and backends.
			name: "policy-in-scenario",
			old:  `"duration": 10,`,
			doc:  `"duration": 10, "policy": "TOP-IL",`,
			want: []string{"scenarios[0]", "policy, model and backend are set per cell"},
		},
		{
			// There is no kernel choice: a manifest naming one must fail
			// strict decoding rather than silently run the default.
			name: "bad-kernel",
			old:  `"duration": 10,`,
			doc:  `"duration": 10, "thermalKernel": "float32",`,
			want: []string{`manifest.json:8: manifest: json: unknown field "thermalKernel"`},
		},
		{
			name: "bad-ambient",
			old:  `"duration": 10,`,
			doc:  `"duration": 10, "ambientC": 400,`,
			want: []string{"ambientC 400 implausible"},
		},
		{
			name: "unknown-technique",
			old:  `"techniques": ["GTS/ondemand"]`,
			doc:  `"techniques": ["GTS/ondemand", "TOP-XL"]`,
			want: []string{`unknown policy "TOP-XL"`},
		},
		{
			name: "duplicate-technique",
			old:  `"techniques": ["GTS/ondemand"]`,
			doc:  `"techniques": ["GTS/ondemand", "GTS/ondemand"]`,
			want: []string{`duplicate technique "GTS/ondemand"`},
		},
		{
			name: "unknown-backend",
			old:  `"techniques": ["GTS/ondemand"],`,
			doc:  `"techniques": ["GTS/ondemand"], "backends": ["tpu"],`,
			want: []string{`unknown backend "tpu"`},
		},
		{
			name: "bad-jobs-manifest",
			old:  `"duration": 10,`,
			doc:  `"duration": 10, "jobs": [{"name": "no-such-bench", "totalInstr": 1, "qos": 1, "arrival": 0}],`,
			want: []string{"jobs manifest:", `unknown benchmark "no-such-bench"`},
		},
		{
			name: "unknown-metric",
			old:  `"metric": "peakTempC"`,
			doc:  `"metric": "vibes"`,
			want: []string{"scenarios[0].envelopes[0]", `unknown metric "vibes"`},
		},
		{
			name: "envelope-technique-not-run",
			old: `"technique": "GTS/ondemand",
          "min"`,
			doc: `"technique": "TOP-IL",
          "min"`,
			want: []string{`envelope technique "TOP-IL" is not run by scenario "quick"`},
		},
		{
			name: "envelope-backend-not-run",
			old:  `"min": 20`,
			doc:  `"backend": "fp16", "min": 20`,
			want: []string{`envelope backend "fp16" is not run by scenario "quick"`},
		},
		{
			name: "empty-band",
			old: `"min": 20,
          "max": 120`,
			doc: `"min": 120,
          "max": 20`,
			want: []string{"tolerance band [120, 20] is empty"},
		},
		{
			name: "infinite-band",
			old: `"min": 20,
          "max": 120`,
			doc: `"min": 20,
          "max": 1e999`,
			want: []string{"manifest:"}, // decode-level: JSON numbers must be finite
		},
		{
			name: "missing-boundary",
			old:  `"boundary": "seed 1, 8 generated jobs, fan on"`,
			doc:  `"boundary": "  "`,
			want: []string{"no applicability boundary note"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := tc.doc
			if tc.old != "" {
				if !strings.Contains(goodManifest, tc.old) {
					t.Fatalf("base manifest lost the anchor %q", tc.old)
				}
				doc = strings.Replace(goodManifest, tc.old, tc.doc, 1)
			}
			m, diags := ParseManifest("manifest.json", []byte(doc))
			if len(diags) == 0 {
				t.Fatalf("accepted (%+v), want diagnostics %v", m, tc.want)
			}
			joined := diagList(diags).Error()
			for _, w := range tc.want {
				if !strings.Contains(joined, w) {
					t.Errorf("diagnostics %q\n  missing %q", joined, w)
				}
			}
		})
	}
}

// TestDiagnosticLines pins the file:line anchoring: a scenario-level problem
// must point at the scenario's opening brace, an envelope-level problem at
// the envelope's.
func TestDiagnosticLines(t *testing.T) {
	doc := "{\n" + // line 1
		`  "schemaVersion": 3,` + "\n" + // 2
		`  "name": "demo",` + "\n" + // 3
		`  "scenarios": [` + "\n" + // 4
		`    {` + "\n" + // 5 <- scenarios[0]
		`      "name": "BAD NAME",` + "\n" + // 6
		`      "duration": 10,` + "\n" + // 7
		`      "techniques": ["GTS/ondemand"],` + "\n" + // 8
		`      "envelopes": [` + "\n" + // 9
		`        {"metric": "peakTempC", "technique": "GTS/ondemand",` + "\n" + // 10 <- envelopes[0]
		`         "min": 20, "max": 120, "boundary": "b"},` + "\n" + // 11
		`        {"metric": "nope", "technique": "GTS/ondemand",` + "\n" + // 12 <- envelopes[1]
		`         "min": 0, "max": 1, "boundary": "b"}` + "\n" + // 13
		`      ]` + "\n" +
		`    }` + "\n" +
		`  ]` + "\n" +
		`}`
	_, diags := ParseManifest("pkg/manifest.json", []byte(doc))
	if len(diags) != 2 {
		t.Fatalf("diags = %v, want 2", diagList(diags))
	}
	wantPos := map[string]string{
		"scenarios[0]":              "pkg/manifest.json:5",
		"scenarios[0].envelopes[1]": "pkg/manifest.json:12",
	}
	for _, d := range diags {
		want, ok := wantPos[d.Path]
		if !ok {
			t.Errorf("unexpected diagnostic path %q (%s)", d.Path, d.Error())
			continue
		}
		if !strings.HasPrefix(d.Error(), want+":") {
			t.Errorf("diagnostic %q should be anchored at %s", d.Error(), want)
		}
	}
}

// TestUnknownFieldLine pins the anchoring of a strict-decode error, which
// carries no offset: the named key is found by a token scan that skips
// string values and array elements of the same text and reads escapes.
func TestUnknownFieldLine(t *testing.T) {
	doc := "{\n" + // line 1
		`  "description": "bogus",` + "\n" + // 2
		`  "name": "demo", "scenarios": [` + "\n" + // 3
		`    {"techniques": ["bogus"],` + "\n" + // 4
		`     "bog\u0075s": 1}]}` // 5
	_, diags := ParseManifest("manifest.json", []byte(doc))
	want := `manifest.json:5: manifest: json: unknown field "bogus"`
	if len(diags) != 1 || diags[0].Error() != want {
		t.Fatalf("diags = %v, want %s", diagList(diags), want)
	}
}

func TestLoadPackageAndDir(t *testing.T) {
	root := t.TempDir()
	write := func(pkg, doc string) {
		dir := filepath.Join(root, pkg)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("demo", goodManifest)

	p, err := LoadPackage(filepath.Join(root, "demo"))
	if err != nil {
		t.Fatalf("LoadPackage: %v", err)
	}
	if p.Manifest.Name != "demo" || filepath.Base(p.Dir) != "demo" {
		t.Fatalf("package = %+v, dir = %s", p.Manifest, p.Dir)
	}

	// A directory whose name disagrees with the manifest is rejected:
	// package identity must be stable under both spellings.
	write("renamed", goodManifest)
	if _, err := LoadPackage(filepath.Join(root, "renamed")); err == nil ||
		!strings.Contains(err.Error(), `does not match directory "renamed"`) {
		t.Fatalf("renamed package: err = %v", err)
	}
	if err := os.RemoveAll(filepath.Join(root, "renamed")); err != nil {
		t.Fatal(err)
	}

	// LoadDir aggregates diagnostics across broken packages instead of
	// stopping at the first.
	write("broken-a", strings.Replace(goodManifest, `"name": "demo"`, `"name": "broken-a", "schemaVersion": 99`, 1))
	write("broken-b", "{")
	_, err = LoadDir(root)
	if err == nil {
		t.Fatal("LoadDir accepted broken packages")
	}
	for _, want := range []string{"broken-a/manifest.json", "broken-b/manifest.json"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("LoadDir error %q missing %q", err, want)
		}
	}
	if err := os.RemoveAll(filepath.Join(root, "broken-a")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, "broken-b")); err != nil {
		t.Fatal(err)
	}

	pkgs, err := LoadDir(root)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Manifest.Name != "demo" {
		t.Fatalf("LoadDir = %v", pkgs)
	}

	// An empty root is an error, not a silent no-op "pass".
	empty := t.TempDir()
	if _, err := LoadDir(empty); err == nil || !strings.Contains(err.Error(), "no packages") {
		t.Fatalf("empty root: err = %v", err)
	}
}

func TestNameCatalogs(t *testing.T) {
	if got := scenario.Names(); len(got) != 6 || got[0] != "TOP-IL" || got[1] != "TOP-RL" {
		t.Fatalf("scenario.Names = %v", got)
	}
	if got := npu.BackendNames(); len(got) != 3 {
		t.Fatalf("BackendNames = %v", got)
	}
	metrics := MetricNames()
	if len(metrics) != len(metricDoc) {
		t.Fatalf("MetricNames = %v", metrics)
	}
	for i := 1; i < len(metrics); i++ {
		if metrics[i-1] >= metrics[i] {
			t.Fatalf("MetricNames not sorted: %v", metrics)
		}
	}
}
