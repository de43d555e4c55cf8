package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func validateBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "topil-validate-bin-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "topil-validate")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building topil-validate: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// govManifest is a governor-only package: no trained artifacts, so the
// smoke tests stay fast.
const govManifest = `{
  "schemaVersion": 3,
  "name": "smoke",
  "scenarios": [
    {
      "name": "quick",
      "duration": 60,
      "numJobs": 3,
      "rate": 1,
      "instrScale": 0.02,
      "techniques": ["GTS/ondemand"],
      "envelopes": [
        {
          "metric": "peakTempC",
          "technique": "GTS/ondemand",
          "min": %MIN%,
          "max": %MAX%,
          "boundary": "seed 1, 3 generated jobs, 60s, fan on"
        }
      ]
    }
  ]
}`

func writePackages(t *testing.T, min, max string) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "smoke")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	doc := strings.NewReplacer("%MIN%", min, "%MAX%", max).Replace(govManifest)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func runValidate(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(validateBinary(t), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running topil-validate: %v", err)
		}
		code = ee.ExitCode()
		if code == -1 {
			t.Fatalf("topil-validate killed: %v\n%s", err, out)
		}
	}
	return string(out), code
}

func TestSmokePackagesPass(t *testing.T) {
	root := writePackages(t, "0", "1000")
	out, code := runValidate(t, "-packages", root)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, out)
	}
	for _, want := range []string{"package smoke: PASS", "conformance: PASS (1 package(s))"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokePackagesJSON(t *testing.T) {
	root := writePackages(t, "0", "1000")
	out, code := runValidate(t, "-packages", root, "-json")
	if code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, out)
	}
	var rep struct {
		Packages []struct {
			Name string `json:"name"`
		} `json:"packages"`
		Pass bool `json:"pass"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("decoding -json report: %v\n%s", err, out)
	}
	if !rep.Pass || len(rep.Packages) != 1 || rep.Packages[0].Name != "smoke" {
		t.Fatalf("report = %+v", rep)
	}
}

// TestSmokePerturbedEnvelope pins the acceptance criterion end to end: a
// perturbed band exits 1 and the diagnostic names package, scenario and
// metric.
func TestSmokePerturbedEnvelope(t *testing.T) {
	root := writePackages(t, "-100", "-50")
	out, code := runValidate(t, "-packages", root)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"envelope smoke/quick: peakTempC", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeBrokenPackage(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "broken")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"),
		[]byte(`{"schemaVersion": 9, "name": "broken", "scenarios": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runValidate(t, "-packages", root)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "manifest.json:1") || !strings.Contains(out, "unknown schema version 9") {
		t.Errorf("output lacks a file:line diagnostic:\n%s", out)
	}
}

func TestSmokeUnknownScale(t *testing.T) {
	root := writePackages(t, "0", "1000")
	out, code := runValidate(t, "-packages", root, "-scale", "galactic")
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, `unknown -scale "galactic"`) {
		t.Errorf("output missing scale diagnostic:\n%s", out)
	}
}

// TestSmokeClassicMode keeps the original no-flag calibration contract.
func TestSmokeClassicMode(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration checks are slow")
	}
	out, code := runValidate(t)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "checks passed") {
		t.Errorf("output missing summary:\n%s", out)
	}
}
