package repro_test

// CLI smoke tests: every cmd/ binary must build, answer -h with exit 0,
// reject unknown flags with a non-zero exit, and report bad inputs as a
// single-line error on stderr (no panics, no stack traces).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

var (
	buildOnce sync.Once
	binDir    string            // removed by TestMain
	builtBins map[string]string // cmd name -> binary path
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildCommands compiles every cmd/ binary into a temp dir once per test
// process; later callers share the binaries.
func buildCommands(t *testing.T) map[string]string {
	t.Helper()
	buildOnce.Do(func() { builtBins, buildErr = compileCommands() })
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBins
}

func compileCommands() (map[string]string, error) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		return nil, err
	}
	if binDir, err = os.MkdirTemp("", "repro-cmd-"); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		bin := filepath.Join(binDir, name)
		if msg, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	if len(out) == 0 {
		return nil, errors.New("no cmd/ binaries found")
	}
	return out, nil
}

// runBin executes a binary and returns its exit code and stderr.
func runBin(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &bytes.Buffer{}
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("running %s: %v", bin, err)
	return -1, ""
}

func TestCommandsHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	for name, bin := range bins {
		code, stderr := runBin(t, bin, "-h")
		if code != 0 {
			t.Errorf("%s -h exited %d", name, code)
		}
		if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-") {
			t.Errorf("%s -h printed no usage:\n%s", name, stderr)
		}

		code, _ = runBin(t, bin, "-definitely-not-a-flag")
		if code == 0 {
			t.Errorf("%s accepted an unknown flag", name)
		}
	}
}

// oneLine asserts a single-line error of the form "<name>: ...".
func oneLine(t *testing.T, name, stderr string) {
	t.Helper()
	trimmed := strings.TrimRight(stderr, "\n")
	if trimmed == "" || strings.Contains(trimmed, "\n") || strings.Contains(stderr, "goroutine") {
		t.Errorf("%s error is not a single line:\n%s", name, stderr)
	}
	if !strings.HasPrefix(trimmed, name+":") {
		t.Errorf("%s error %q lacks the command prefix", name, trimmed)
	}
}

func TestCommandsFailCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	emptyJobs := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(emptyJobs, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		bin  string
		args []string
	}{
		{"topil-sim", []string{"-technique", "TOP-IL", "-model", "/nonexistent/model.json"}},
		{"topil-sim", []string{"-technique", "GTS/ondemand", "-workload", emptyJobs}},
		{"topil-sim", []string{"-jobs", "-4"}},
		{"topil-sim", []string{"-technique", "GTS/ondemand", "-workload", "/nonexistent/jobs.json"}},
		{"topil-serve", []string{"-models", "/nonexistent/dir"}},
		{"topil-serve", []string{"-workers", "-1"}},
		{"topil-lint", []string{"-rules", "nosuchrule", "./cmd/topil-lint"}},
		{"topil-lint", []string{"/nonexistent"}},
		{"topil-cluster", []string{"-models", "/nonexistent/dir"}},
		{"topil-cluster", []string{"-n", "0"}},
		{"topil-cluster", []string{"-join", " ,http://x"}},
		{"topil-loadgen", []string{"-mode", "looped"}},
		{"topil-loadgen", []string{"-dim", "0"}},
	}
	for _, c := range cases {
		bin, ok := bins[c.bin]
		if !ok {
			t.Fatalf("binary %s not built", c.bin)
		}
		code, stderr := runBin(t, bin, c.args...)
		if code != 1 {
			t.Errorf("%s %v exited %d, want 1\n%s", c.bin, c.args, code, stderr)
			continue
		}
		// Progress logs share stderr; the error is the last line.
		lines := strings.Split(strings.TrimRight(stderr, "\n"), "\n")
		oneLine(t, c.bin, lines[len(lines)-1])
	}
}

// freePort reserves an ephemeral port and returns "127.0.0.1:<port>".
// There is a small race between Close and the server binding it, which is
// the standard trade-off for subprocess servers under test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// writeTestModel drops a loadable MLP artifact into dir.
func writeTestModel(t *testing.T, dir, name string) {
	t.Helper()
	if err := core.SaveModel(nn.NewMLP([]int{21, 32, 8}, 1), filepath.Join(dir, name+".json")); err != nil {
		t.Fatal(err)
	}
}

// waitHealthy polls /v1/healthz until the server answers 200.
func waitHealthy(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("server at %s never became healthy", base)
}

// TestClusterLoadgenSmoke runs the two new binaries against each other:
// topil-cluster with two in-process replicas, topil-loadgen in burst
// mode against it, and asserts the report shows successful traffic with
// no server-side errors.
func TestClusterLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)

	modelsDir := t.TempDir()
	writeTestModel(t, modelsDir, "model-1")
	addr := freePort(t)
	clusterCmd := exec.Command(bins["topil-cluster"],
		"-addr", addr, "-n", "2", "-models", modelsDir,
		"-store-root", t.TempDir(), "-health-interval", "50ms")
	clusterCmd.Stderr = os.Stderr
	if err := clusterCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		clusterCmd.Process.Kill()
		clusterCmd.Wait()
	}()
	base := "http://" + addr
	waitHealthy(t, base, 10*time.Second)

	var out bytes.Buffer
	lg := exec.Command(bins["topil-loadgen"],
		"-url", base, "-model", "model-1", "-dim", "21",
		"-qps", "200", "-duration", "1s", "-shape", "burst", "-seed", "7")
	lg.Stdout = &out
	lg.Stderr = os.Stderr
	if err := lg.Run(); err != nil {
		t.Fatalf("topil-loadgen: %v", err)
	}
	var rep struct {
		OK         int64 `json:"ok"`
		ServerErrs int64 `json:"serverErrs"`
		NetErrs    int64 `json:"netErrs"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.OK == 0 {
		t.Fatalf("loadgen recorded no successful requests:\n%s", out.String())
	}
	if rep.ServerErrs != 0 || rep.NetErrs != 0 {
		t.Fatalf("loadgen saw server/network errors against a healthy cluster:\n%s", out.String())
	}
}

// TestClusterJobStoreRecovery kills a journal-backed topil-serve with
// SIGKILL mid-job — a real crash, not a drain — restarts it over the
// same store directory, and requires the accepted job to finish.
func TestClusterJobStoreRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)

	modelsDir := t.TempDir()
	writeTestModel(t, modelsDir, "model-1")
	storeDir := t.TempDir()
	addr := freePort(t)

	start := func() *exec.Cmd {
		cmd := exec.Command(bins["topil-serve"],
			"-addr", addr, "-models", modelsDir, "-store", storeDir, "-workers", "2")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	srv := start()
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	base := "http://" + addr
	waitHealthy(t, base, 10*time.Second)

	// A job slow enough to still be running when SIGKILL lands.
	body := `{"policy":"GTS/ondemand","duration":86400,"numJobs":256,"rate":100,"instrScale":100}`
	resp, err := http.Post(base+"/v1/sim", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || snap.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, snap)
	}
	time.Sleep(200 * time.Millisecond) // let the worker pick it up

	if err := srv.Process.Kill(); err != nil { // SIGKILL: no drain, no journal flush beyond fsync'd lines
		t.Fatal(err)
	}
	srv.Wait()

	srv = start()
	waitHealthy(t, base, 10*time.Second)

	// The job replays from the journal. Cancel it (it runs for a day) —
	// reaching any terminal state is the durability contract.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+snap.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			t.Fatalf("job %s lost across the crash", snap.ID)
		}
		var cur struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == "done" || cur.State == "failed" || cur.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after restart", snap.ID, cur.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
