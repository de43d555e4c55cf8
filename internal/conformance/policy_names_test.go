package conformance_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/serve"
)

// TestGTSNamesResolveEverywhere pins the single GTS name table: every name
// in governor.GTSNames is accepted by conformance manifest validation, and
// resolves to a manager reporting that same Name() through experiments'
// Manager and through serve's sim-job runner.
func TestGTSNamesResolveEverywhere(t *testing.T) {
	names := governor.GTSNames()
	want := []string{"GTS/ondemand", "GTS/powersave", "GTS/schedutil", "GTS/performance"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("GTSNames = %v, want %v", names, want)
	}
	p := experiments.NewPipeline(experiments.QuickScale())
	runner := serve.NewRunner(serve.NewRegistry(t.TempDir()), 2, len(names), nil, nil)
	defer runner.Shutdown(context.Background())

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			doc := `{"schemaVersion": 1, "name": "gts", "scenarios": [{"name": "s",
				"durationSec": 1, "techniques": ["` + name + `"],
				"envelopes": [{"metric": "peakTempC", "technique": "` + name + `",
				"min": 0, "max": 200, "boundary": "any"}]}]}`
			if _, diags := conformance.ParseManifest("manifest.json", []byte(doc)); len(diags) > 0 {
				t.Errorf("conformance rejects %q: %v", name, diags)
			}

			m, err := p.Manager(name, 0)
			if err != nil || m.Name() != name {
				t.Errorf("experiments.Manager(%q) = %v, %v", name, m, err)
			}

			snap, err := runner.Submit(serve.SimRequest{
				Policy: name, Duration: 1, NumJobs: 1, Rate: 2, InstrScale: 0.01,
			})
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
