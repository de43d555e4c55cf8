package oracle

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTracesSaveLoadRoundTrip(t *testing.T) {
	cfg := quickCfg()
	ts, err := CollectTraces(paperScenario(t, "adi"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traces.json.gz")
	if err := SaveTraces(ts, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenario.AoI.Name != "adi" || back.NumCores != ts.NumCores {
		t.Fatalf("scenario metadata lost: %+v", back.Scenario.AoI.Name)
	}
	want, err := ts.fill()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.fill()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("points %d, want %d", len(got), len(want))
	}
	for k, p := range want {
		q, ok := got[k]
		if !ok || q != p {
			t.Fatalf("point %+v lost or changed: %+v vs %+v", k, p, q)
		}
	}
	if len(back.FreeCores) != len(ts.FreeCores) {
		t.Fatalf("free cores %v, want %v", back.FreeCores, ts.FreeCores)
	}

	// Extraction on the reloaded set must match the original exactly.
	a, err := ExtractExamples(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtractExamples(back, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("example counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !sameExample(a[i], b[i]) {
			t.Fatalf("example %d differs after trace round trip", i)
		}
	}
}

func TestLoadTracesErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadTraces(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	notGz := filepath.Join(dir, "plain")
	os.WriteFile(notGz, []byte("hello"), 0o644)
	if _, err := LoadTraces(notGz); err == nil {
		t.Error("non-gzip file accepted")
	}
}
