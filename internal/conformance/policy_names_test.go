package conformance_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// writeModel saves an untrained model of the platform's 21->8 shape.
func writeModel(t *testing.T, dir, name string) {
	t.Helper()
	if err := core.SaveModel(nn.NewMLP([]int{21, 16, 8}, 1), filepath.Join(dir, name+".json")); err != nil {
		t.Fatal(err)
	}
}

// TestGTSNamesResolveEverywhere pins the single policy registry: every name
// in scenario.Names is accepted by conformance manifest validation, and
// resolves to a manager reporting that same Name() through experiments'
// Manager and through serve's sim-job runner — except TOP-RL, which serve
// has no Q-table for and rejects at submit with the registry's error.
func TestGTSNamesResolveEverywhere(t *testing.T) {
	names := scenario.Names()
	want := []string{"TOP-IL", "TOP-RL", "GTS/ondemand", "GTS/powersave", "GTS/schedutil", "GTS/performance"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Names = %v, want %v", names, want)
	}

	// One artifact directory serves both sides: the pipeline loads
	// model-1.json and qtable-1.json.gz instead of training, and the serve
	// registry finds model-1.json as "model-1".
	dir := t.TempDir()
	writeModel(t, dir, "model-1")
	if err := rl.NewQTable(8).Save(filepath.Join(dir, "qtable-1.json.gz")); err != nil {
		t.Fatal(err)
	}
	p := experiments.NewPipeline(experiments.QuickScale())
	p.ArtifactsDir = dir
	runner := serve.NewRunner(serve.NewRegistry(dir), 2, len(names), nil, nil)
	defer runner.Shutdown(context.Background())

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			doc := `{"schemaVersion": 2, "name": "policies", "scenarios": [{"name": "s",
				"duration": 1, "techniques": ["` + name + `"],
				"envelopes": [{"metric": "peakTempC", "technique": "` + name + `",
				"min": 0, "max": 200, "boundary": "any"}]}]}`
			if _, diags := conformance.ParseManifest("manifest.json", []byte(doc)); len(diags) > 0 {
				t.Errorf("conformance rejects %q: %v", name, diags)
			}

			m, err := p.Manager(name, 0)
			if err != nil || m.Name() != name {
				t.Errorf("experiments.Manager(%q) = %v, %v", name, m, err)
			}

			snap, err := runner.SubmitID("", serve.SimRequest{
				Policy: name, Model: "model-1", Duration: 1, NumJobs: 1, Rate: 2, InstrScale: 0.01,
			})
			if name == "TOP-RL" {
				if err == nil || !strings.Contains(err.Error(), "needs a Q-table") {
					t.Fatalf("serve submit of TOP-RL = %v, want the registry's Q-table error", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("serve rejects %q: %v", name, err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for snap.State != serve.StateDone {
				if snap.State == serve.StateFailed || snap.State == serve.StateCanceled || time.Now().After(deadline) {
					t.Fatalf("serve job for %q ended %q: %s", name, snap.State, snap.Error)
				}
				time.Sleep(5 * time.Millisecond)
				j, _ := runner.Get(snap.ID)
				snap = j.Snapshot()
			}
			if snap.Result.Technique != name {
				t.Errorf("serve ran %q for policy %q", snap.Result.Technique, name)
			}
		})
	}
}
