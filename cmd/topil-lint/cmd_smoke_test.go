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

// buildOnce compiles the topil-lint binary a single time per test run.
var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func lintBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "topil-lint-bin-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "topil-lint")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building topil-lint: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// violations trips each of the four concurrency/lifecycle rules once.
const violations = `package w

import (
	"context"
	"net/http"
	"os"
)

func Spin() {
	go func() {
		for {
		}
	}()
}

func Fetch(ctx context.Context, url string) error {
	req, err := http.NewRequest("GET", url, nil)
	_ = req
	_ = ctx
	return err
}

func Open(path string, skip bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if skip {
		return nil
	}
	return f.Close()
}

//hot:smoke
func Hot(n int) []byte {
	return make([]byte, n)
}
`

// suppressed is the same module with every finding individually ignored.
const suppressed = `package w

import (
	"context"
	"net/http"
	"os"
)

func Spin() {
	//lint:ignore goleak process-lifetime worker for the smoke test
	go func() {
		for {
		}
	}()
}

func Fetch(ctx context.Context, url string) error {
	//lint:ignore ctxflow legacy endpoint, context plumbed separately
	req, err := http.NewRequest("GET", url, nil)
	_ = req
	_ = ctx
	return err
}

func Open(path string, skip bool) error {
	//lint:ignore closecheck handle parked in the registry on the skip path
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if skip {
		return nil
	}
	return f.Close()
}

//hot:smoke
func Hot(n int) []byte {
	//lint:ignore hotalloc one-time buffer, measured off the hot loop
	return make([]byte, n)
}
`

const clean = `package w

func Add(a, b int) int { return a + b }
`

const newRules = "goleak,ctxflow,closecheck,hotalloc"

// writeModule lays out a throwaway module for the binary to lint.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"),
		[]byte("module smokemod\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "w.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// runLint executes the binary in dir and returns stdout and the exit code.
func runLint(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(lintBinary(t), args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running topil-lint: %v", err)
		}
		code = ee.ExitCode()
		if code == -1 {
			t.Fatalf("topil-lint killed: %v\n%s", err, ee.Stderr)
		}
	}
	return string(out), code
}

// decodeReport parses the -json envelope.
func decodeReport(t *testing.T, out string) map[string]any {
	t.Helper()
	var rep map[string]any
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, out)
	}
	return rep
}

// rulesIn lists the distinct rules of the envelope's diagnostics.
func rulesIn(t *testing.T, rep map[string]any) map[string]int {
	t.Helper()
	diags, ok := rep["diagnostics"].([]any)
	if !ok {
		t.Fatalf("report has no diagnostics array: %v", rep)
	}
	rules := map[string]int{}
	for _, d := range diags {
		m := d.(map[string]any)
		rules[m["rule"].(string)]++
	}
	return rules
}

// TestSmokeCleanExitsZero: a clean tree exits 0 with an empty
// diagnostics array in the envelope.
func TestSmokeCleanExitsZero(t *testing.T) {
	dir := writeModule(t, clean)
	out, code := runLint(t, dir, "-json", "-rules", newRules, "./...")
	if code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, out)
	}
	rep := decodeReport(t, out)
	if n := len(rulesIn(t, rep)); n != 0 {
		t.Errorf("clean tree produced %d finding rules: %v", n, rep["diagnostics"])
	}
	for _, key := range []string{"packages", "load_seconds", "analysis_wall_seconds"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("envelope missing %q: %v", key, rep)
		}
	}
}

// TestSmokeFindingsExitThree: each of the four new rules fires exactly
// once on the violation module, and the exit code is 3.
func TestSmokeFindingsExitThree(t *testing.T) {
	dir := writeModule(t, violations)
	out, code := runLint(t, dir, "-json", "-rules", newRules, "./...")
	if code != 3 {
		t.Fatalf("exit code %d, want 3\n%s", code, out)
	}
	rules := rulesIn(t, decodeReport(t, out))
	for _, want := range []string{"goleak", "ctxflow", "closecheck", "hotalloc"} {
		if rules[want] != 1 {
			t.Errorf("rule %s fired %d times, want 1 (all: %v)", want, rules[want], rules)
		}
	}
}

// TestSmokeDiagnosticShape pins the five-key diagnostic contract inside
// the envelope.
func TestSmokeDiagnosticShape(t *testing.T) {
	dir := writeModule(t, violations)
	out, code := runLint(t, dir, "-json", "-rules", "goleak", "./...")
	if code != 3 {
		t.Fatalf("exit code %d, want 3\n%s", code, out)
	}
	rep := decodeReport(t, out)
	diags := rep["diagnostics"].([]any)
	if len(diags) != 1 {
		t.Fatalf("%d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0].(map[string]any)
	if len(d) != 5 {
		t.Errorf("diagnostic has %d keys, want exactly 5 (rule/message/file/line/col): %v", len(d), d)
	}
	for _, key := range []string{"rule", "message", "file", "line", "col"} {
		if _, ok := d[key]; !ok {
			t.Errorf("diagnostic missing %q: %v", key, d)
		}
	}
}

// TestSmokeDisable: -disable removes exactly the named rules.
func TestSmokeDisable(t *testing.T) {
	dir := writeModule(t, violations)
	out, code := runLint(t, dir, "-json", "-rules", newRules,
		"-disable", "goleak,hotalloc", "./...")
	if code != 3 {
		t.Fatalf("exit code %d, want 3\n%s", code, out)
	}
	rules := rulesIn(t, decodeReport(t, out))
	if rules["goleak"] != 0 || rules["hotalloc"] != 0 {
		t.Errorf("disabled rules still fired: %v", rules)
	}
	if rules["ctxflow"] != 1 || rules["closecheck"] != 1 {
		t.Errorf("remaining rules did not fire once each: %v", rules)
	}
}

// TestSmokeUnknownRuleExitsOne: operational errors exit 1.
func TestSmokeUnknownRuleExitsOne(t *testing.T) {
	dir := writeModule(t, clean)
	_, code := runLint(t, dir, "-rules", "nosuchrule", "./...")
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}

// TestSmokeSuppressionRoundTrip: //lint:ignore silences each new rule
// (exit 0), and an unused directive becomes a badignore finding.
func TestSmokeSuppressionRoundTrip(t *testing.T) {
	dir := writeModule(t, suppressed)
	out, code := runLint(t, dir, "-json", "-rules", newRules, "./...")
	if code != 0 {
		t.Fatalf("suppressed module: exit code %d, want 0\n%s", code, out)
	}

	unused := clean + "\nfunc Noop() {\n\t//lint:ignore goleak nothing to suppress here\n\t_ = 0\n}\n"
	dir2 := writeModule(t, unused)
	out2, code2 := runLint(t, dir2, "-json", "-rules", newRules, "./...")
	if code2 != 3 {
		t.Fatalf("unused suppression: exit code %d, want 3\n%s", code2, out2)
	}
	rules := rulesIn(t, decodeReport(t, out2))
	if rules["badignore"] != 1 {
		t.Errorf("unused suppression rules = %v, want one badignore", rules)
	}
}

// TestSmokeDependencyChange: a finding that appears only because a
// dependency changed is reported on the next run. Package a takes b.T by
// value; once b.T gains a mutex, lockcheck must flag a's parameter even
// though a's own files are untouched.
func TestSmokeDependencyChange(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module demo\n\ngo 1.21\n")
	write("a/a.go", "package a\n\nimport \"demo/b\"\n\n// Use reads t.\nfunc Use(t b.T) int { return t.N }\n")
	write("b/b.go", "package b\n\n// T is a plain value.\ntype T struct{ N int }\n")

	if out, code := runLint(t, dir, "-rules", "lockcheck", "./..."); code != 0 {
		t.Fatalf("before the change: exit code %d, want 0\n%s", code, out)
	}

	write("b/b.go", "package b\n\nimport \"sync\"\n\n// T now guards N.\ntype T struct {\n\tmu sync.Mutex\n\tN  int\n}\n")
	out, code := runLint(t, dir, "-rules", "lockcheck", "./...")
	if code != 3 {
		t.Fatalf("after the change: exit code %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "a/a.go:6:") || !strings.Contains(out, "lockcheck: parameter of type demo/b.T contains a mutex") {
		t.Errorf("missing the a/a.go lockcheck finding:\n%s", out)
	}
}
