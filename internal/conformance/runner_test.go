package conformance

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// writeTestPackage materializes a governor-only package (no training, so
// the test runs in well under a second).
func writeTestPackage(t *testing.T, root, name string, wideBands bool) {
	t.Helper()
	min, max := 0.0, 1e6
	if !wideBands {
		// A deliberately perturbed envelope: no simulated run peaks below
		// freezing, so this band must fail.
		min, max = -100.0, -50.0
	}
	m := Manifest{
		SchemaVersion: ManifestVersion,
		Name:          name,
		Scenarios: []Scenario{{
			Name:       "quick",
			Spec:       scenario.Spec{Duration: 60, NumJobs: 3, Rate: 1, InstrScale: 0.02},
			Techniques: []string{"GTS/ondemand", "GTS/powersave"},
			Envelopes: []Envelope{
				{Metric: "peakTempC", Technique: "GTS/ondemand", Min: min, Max: max,
					Boundary: "seed 1, 3 generated jobs, 60s, fan on"},
				{Metric: "energyJ", Technique: "GTS/powersave", Min: 0, Max: 1e9,
					Boundary: "seed 1, 3 generated jobs, 60s, fan on"},
			},
		}},
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunGovernorPackage(t *testing.T) {
	root := t.TempDir()
	writeTestPackage(t, root, "gov-pass", true)
	pkgs, err := LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	p := experiments.NewPipeline(experiments.QuickScale())
	rep, err := Run(p, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("report failed:\n%s", rep.Render())
	}
	pr := rep.Packages[0]
	if len(pr.Scenarios) != 1 || len(pr.Scenarios[0].Cells) != 2 {
		t.Fatalf("cells = %+v", pr.Scenarios)
	}
	for _, c := range pr.Scenarios[0].Cells {
		if c.Backend != "-" {
			t.Errorf("governor cell backend = %q, want -", c.Backend)
		}
		if c.Metrics["peakTempC"] <= 0 || c.Metrics["energyJ"] <= 0 {
			t.Errorf("cell %s metrics implausible: %+v", c.Technique, c.Metrics)
		}
	}
}

// TestRunPerturbedEnvelopeFails pins the acceptance criterion: a perturbed
// envelope fails with a diagnostic naming the package, scenario and metric.
func TestRunPerturbedEnvelopeFails(t *testing.T) {
	root := t.TempDir()
	writeTestPackage(t, root, "gov-fail", false)
	pkgs, err := LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	p := experiments.NewPipeline(experiments.QuickScale())
	rep, err := Run(p, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("perturbed envelope passed:\n%s", rep.Render())
	}
	text := rep.Render()
	for _, want := range []string{
		"envelope gov-fail/quick: peakTempC GTS/ondemand[-]",
		"band [-100, -50] FAIL",
		"boundary: seed 1, 3 generated jobs, 60s, fan on",
		"package gov-fail: FAIL",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestRunDeterministicAcrossWorkers pins the -j1 == -j8 byte-identity the
// make conformance target relies on.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	root := t.TempDir()
	writeTestPackage(t, root, "gov-det", true)
	pkgs, err := LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var renders [][]byte
	for _, workers := range []int{1, 8} {
		p := experiments.NewPipeline(experiments.QuickScale())
		p.Workers = workers
		rep, err := Run(p, pkgs)
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, append([]byte(rep.Render()), js...))
	}
	if !bytes.Equal(renders[0], renders[1]) {
		t.Fatalf("reports differ between -j1 and -j8:\n--- j1:\n%s\n--- j8:\n%s",
			renders[0], renders[1])
	}
}
